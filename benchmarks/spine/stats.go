package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of vals by linear
// interpolation between order statistics. It copies and sorts; an
// empty input yields NaN so a missing sample can never read as a fast
// one.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// Interference on a shared box only ever slows a window down, never
// speeds it up, so a run is read off its quietest window: the highest
// rate, the lowest median latency. A real regression moves every
// window, the quietest included. An extreme order statistic is not the
// reduction one would pick on a quiet machine (it is biased upwards and
// blind to a cost that skips a window; loadgen.qps_median is printed
// for that), but on the box the bounds come from fewer than a tenth of
// the half-seconds are quiet, and every quantile short of the extreme
// repeats worse across runs, the further in the worse (README.md,
// "Estimators").
func quietestRate(perWindow []float64) float64    { return quantile(perWindow, 1) }
func quietestLatency(perWindow []float64) float64 { return quantile(perWindow, 0) }

// sample is one completed operation as its client observed it.
type sample struct {
	kind opKind
	ops  int // operations the request carried (16 for a 16-query batch)
	lat  time.Duration
	done time.Time
}

// window is the slice of a load phase between two fixed instants.
type window struct {
	Traced    bool      `json:"traced,omitempty"`
	Seconds   float64   `json:"seconds"`
	Ops       float64   `json:"ops"`           // operations, pro-rated at the edges
	Rate      float64   `json:"rate"`          // Ops per second
	SearchP50 float64   `json:"search_p50_ms"` // median search-request latency
	searchMs  []float64 // search-request latencies, ms
	upsertMs  []float64
	deleteMs  []float64
}

// binWindows cuts a phase into count contiguous windows of the given
// length from start. An operation's work is credited to the windows
// its [send, reply] interval overlaps, in proportion to the overlap:
// whole-operation counting would quantize a half-second window of nine
// 16-query batches in steps of 11%. Its latency goes to the window its reply
// fell in; replies outside every window (warm-up, or still in flight
// at the end) carry no latency sample.
func binWindows(samples []sample, start time.Time, length time.Duration, count int) []window {
	ws := make([]window, count)
	for _, s := range samples {
		hi := s.done.Sub(start)
		lo := hi - s.lat
		for i := max(0, int(lo/length)); i < count && time.Duration(i)*length < hi; i++ {
			a, b := max(lo, time.Duration(i)*length), min(hi, time.Duration(i+1)*length)
			if s.lat > 0 && b > a {
				ws[i].Ops += float64(s.ops) * float64(b-a) / float64(s.lat)
			}
		}
		if hi < 0 || int(hi/length) >= count {
			continue
		}
		w := &ws[int(hi/length)]
		ms := float64(s.lat) / float64(time.Millisecond)
		switch s.kind {
		case opSearch:
			w.searchMs = append(w.searchMs, ms)
		case opUpsert:
			w.upsertMs = append(w.upsertMs, ms)
		case opDelete:
			w.deleteMs = append(w.deleteMs, ms)
		}
	}
	for i := range ws {
		ws[i].Seconds = length.Seconds()
		ws[i].Rate = ws[i].Ops / length.Seconds()
		ws[i].SearchP50 = median(ws[i].searchMs)
	}
	return ws
}

// loadSummary is what the windows of one run reduce to.
type loadSummary struct {
	QPS          float64 // rate of the quietest window
	QPSMedian    float64
	LatP50Ms     float64 // lowest per-window median search latency
	SearchCount  int     // search requests behind LatP50Ms and the tail
	P95, P99     float64 // pooled over every window, ms
	Max          float64
	Disturbed    int // windows slower than 0.85 x QPS
	UpsertP50Ms  float64
	DeleteP50Ms  float64
	WindowRates  []float64
	WindowP50sMs []float64
}

// disturbedBelow is the share of the quietest window's rate under which
// a window counts as hit by interference.
const disturbedBelow = 0.85

func summarize(ws []window) loadSummary {
	var s loadSummary
	var pooled, upserts, deletes []float64
	for _, w := range ws {
		s.WindowRates = append(s.WindowRates, w.Rate)
		if len(w.searchMs) > 0 {
			s.WindowP50sMs = append(s.WindowP50sMs, w.SearchP50)
		}
		pooled = append(pooled, w.searchMs...)
		upserts = append(upserts, w.upsertMs...)
		deletes = append(deletes, w.deleteMs...)
	}
	s.QPS = quietestRate(s.WindowRates)
	s.QPSMedian = median(s.WindowRates)
	s.LatP50Ms = quietestLatency(s.WindowP50sMs)
	s.SearchCount = len(pooled)
	s.P95 = quantile(pooled, 0.95)
	s.P99 = quantile(pooled, 0.99)
	s.Max = quantile(pooled, 1)
	for _, r := range s.WindowRates {
		if r < disturbedBelow*s.QPS {
			s.Disturbed++
		}
	}
	s.UpsertP50Ms = zeroIfNaN(median(upserts))
	s.DeleteP50Ms = zeroIfNaN(median(deletes))
	return s
}

// zeroIfNaN maps "no sample" to 0 for metrics of a layer the workload
// never enters (a read-only workload has no upsert latency).
func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
