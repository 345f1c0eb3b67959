package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels identifies one series within a metric family. Rendered in
// sorted key order so series identity is stable.
type Labels map[string]string

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative-rendered buckets with
// the given upper bounds (ascending; a +Inf bucket is implicit).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (excluding +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket (non-cumulative) counts; the
// last element is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// series is one labeled instance of a metric family. Exactly one of
// the value fields is set, matching the family type.
type series struct {
	labels      string // pre-rendered {a="b",...} or ""
	counter     *Counter
	counterFunc func() uint64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
}

// family is one metric name: its type, help text, and series.
type family struct {
	name, help, typ string
	series          []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration order is preserved.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels formats labels sorted by key, escaping values.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(labels[k])
		fmt.Fprintf(&b, "%s=%q", k, v)
	}
	b.WriteByte('}')
	return b.String()
}

// add registers one series, panicking on a type clash or duplicate
// series — both are programming errors.
func (r *Registry) add(name, help, typ string, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	for _, old := range f.series {
		if old.labels == s.labels {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", &series{labels: renderLabels(labels), counter: c})
	return c
}

// CounterFunc registers a counter series backed by a callback; fn must
// be monotone non-decreasing and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	r.add(name, help, "counter", &series{labels: renderLabels(labels), counterFunc: fn})
}

// Gauge registers and returns a settable gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.add(name, help, "gauge", &series{labels: renderLabels(labels), gauge: g})
	return g
}

// GaugeFunc registers a gauge series backed by a callback, sampled at
// render time; fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.add(name, help, "gauge", &series{labels: renderLabels(labels), gaugeFunc: fn})
}

// Histogram registers and returns a histogram series with the given
// ascending bucket upper bounds (a +Inf bucket is added).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.add(name, help, "histogram", &series{labels: renderLabels(labels), hist: h})
	return h
}

// Unregister removes every series whose labels include all of match
// (e.g. Labels{"region": "glove"} removes a freed region's series
// across all families). Families left empty disappear from the
// rendered output. A removed series is unreachable from the registry
// afterwards, so neither is whatever its callback captured.
func (r *Registry) Unregister(match Labels) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		f.series = slices.DeleteFunc(f.series, func(s *series) bool { return labelsMatch(s.labels, match) })
	}
}

// labelsMatch reports whether a rendered label string contains every
// match pair.
func labelsMatch(rendered string, match Labels) bool {
	for k, v := range match {
		if !strings.Contains(rendered, fmt.Sprintf("%s=%q", k, v)) {
			return false
		}
	}
	return true
}

// fmtValue renders a float without exponent surprises for integers.
func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if len(f.series) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			case s.counterFunc != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counterFunc())
			case s.gauge != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtValue(s.gauge.Value()))
			case s.gaugeFunc != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, fmtValue(s.gaugeFunc()))
			case s.hist != nil:
				writeHistogram(w, f.name, s.labels, s.hist)
			}
		}
	}
}

// writeHistogram renders one histogram series: cumulative _bucket
// rows, then _sum and _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	// Splice le="..." into the existing label set.
	withLe := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`%s,le="%s"}`, strings.TrimSuffix(labels, "}"), le)
	}
	var cum uint64
	counts := h.BucketCounts()
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe(fmtValue(bound)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}
