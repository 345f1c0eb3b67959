package main

import (
	"net/http"
	"sort"
	"time"

	"ssam/internal/obs"
	"ssam/internal/server"
)

// Tracing is the benchmark's own: the client span is recorded here,
// around the calls into internal/client, and the server's span tree
// comes back inline through the existing X-SSAM-Trace header. Spans
// stay in memory until the phase ends. Traced timings only ever feed
// per-layer metrics.

// roundTrip is filled in by spanTransport for a request whose context
// carries it; server is set by the caller from the decoded response.
type roundTrip struct {
	start, end time.Time // request handed to net/http -> response headers back
	server     *obs.TraceData
}

type roundTripKey struct{}

// spanTransport stamps the round trip of requests that carry a
// roundTrip and asks the server to trace them.
type spanTransport struct{ next http.RoundTripper }

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, ok := req.Context().Value(roundTripKey{}).(*roundTrip)
	if !ok {
		return t.next.RoundTrip(req)
	}
	req.Header.Set(server.TraceHeader, "1")
	rt.start = time.Now()
	resp, err := t.next.RoundTrip(req)
	rt.end = time.Now()
	return resp, err
}

// requestSpan is one traced request as the client saw it: the call
// into internal/client from start to end, with the round trip inside.
type requestSpan struct {
	start, end time.Time
	rt         roundTrip
}

func usBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Microsecond) }

// tree joins the client span and the server's span tree into one:
//
//	client
//	├── encode       call start -> request handed to net/http
//	├── roundtrip    -> response headers back
//	│   └── <server root>  (search | searchbatch | upsert | delete)
//	└── decode       -> call returns (body read + JSON decode)
//
// All offsets are microseconds from the client span's start; the
// server's tree is re-based onto that clock through its start time.
func (r requestSpan) tree() *obs.SpanData {
	round := &obs.SpanData{Stage: "roundtrip", StartUs: usBetween(r.start, r.rt.start), DurUs: usBetween(r.rt.start, r.rt.end)}
	if r.rt.server != nil && r.rt.server.Root != nil {
		round.Children = []*obs.SpanData{rebase(r.rt.server.Root, usBetween(r.start, r.rt.server.Start))}
	}
	return &obs.SpanData{
		Stage: "client",
		DurUs: usBetween(r.start, r.end),
		Children: []*obs.SpanData{
			{Stage: "encode", DurUs: usBetween(r.start, r.rt.start)},
			round,
			{Stage: "decode", StartUs: usBetween(r.start, r.rt.end), DurUs: usBetween(r.rt.end, r.end)},
		},
	}
}

// rebase returns a deep copy of d with every start shifted by offUs.
func rebase(d *obs.SpanData, offUs float64) *obs.SpanData {
	c := *d
	c.StartUs += offUs
	c.Children = make([]*obs.SpanData, len(d.Children))
	for i, ch := range d.Children {
		c.Children[i] = rebase(ch, offUs)
	}
	return &c
}

// selfUs is a span's duration minus the part of its interval that its
// children cover. Children may overlap (vault scans run in parallel)
// and may stick out of the parent (an abandoned hedge); the union is
// clipped to the parent.
func selfUs(d *obs.SpanData) float64 {
	type iv struct{ lo, hi float64 }
	lo, hi := d.StartUs, d.StartUs+d.DurUs
	ivs := make([]iv, 0, len(d.Children))
	for _, c := range d.Children {
		a, b := max(c.StartUs, lo), min(c.StartUs+c.DurUs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, edge := 0.0, lo
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return d.DurUs - covered
}

// findTagged returns the first span named stage that carries tag, in a
// depth-first walk. Two different layers both call their span "exec"
// (the batcher's carries batch_size, the region's carries execution).
func findTagged(d *obs.SpanData, stage, tag string) *obs.SpanData {
	for _, s := range d.FindAll(stage) {
		if _, ok := s.Tags[tag]; ok {
			return s
		}
	}
	return nil
}

// spanStats reduces the traced requests of a phase to per-layer
// numbers. Every value is a median across requests (batch size a
// mean); a layer no traced request entered reads 0.
type spanStats struct {
	Requests      int
	EncodeUs      float64
	DecodeUs      float64
	TransportUs   float64 // roundtrip self: net/http and the loopback socket, both directions
	ServerSelfMs  float64 // server root self: decode, registry lookup, response encode
	AdmissionMs   float64
	QueueMs       float64 // wait in the micro-batcher for the window to close
	BatchSizeMean float64
	BatcherSelfMs float64 // batcher exec span minus the region call inside it
	RegionExecMs  float64 // region exec span: the engine call as the server saw it, under load
	RegionSelfMs  float64 // region exec minus its vault scans: merge and dispatch
	VaultMaxMs    float64
	VaultSkew     float64 // slowest vault over mean vault
	MutateMs      float64 // server-side mutate span of writes
}

func reduceSpans(spans []requestSpan) spanStats {
	var encode, decode, transport, serverSelf, admission, queue, batchSize []float64
	var batcherSelf, regionExec, regionSelf, vaultMax, vaultSkew, mutate []float64
	for _, r := range spans {
		t := r.tree()
		round := t.Children[1]
		encode = append(encode, t.Children[0].DurUs)
		decode = append(decode, t.Children[2].DurUs)
		transport = append(transport, selfUs(round))
		if len(round.Children) == 0 {
			continue
		}
		root := round.Children[0]
		serverSelf = append(serverSelf, selfUs(root)/1e3)
		if s := root.Find("admission"); s != nil {
			admission = append(admission, s.DurUs/1e3)
		}
		if s := root.Find("queue"); s != nil {
			queue = append(queue, s.DurUs/1e3)
		}
		if s := root.Find("mutate"); s != nil {
			mutate = append(mutate, s.DurUs/1e3)
		}
		if s := findTagged(root, "exec", "batch_size"); s != nil {
			if n, ok := s.Tags["batch_size"].(float64); ok {
				batchSize = append(batchSize, n)
			}
			// The engine's spans hang under the first traced request of
			// a batch only; the others' exec spans are childless and say
			// nothing about the batcher's own share.
			if len(s.Children) > 0 {
				batcherSelf = append(batcherSelf, selfUs(s)/1e3)
			}
		}
		if s := findTagged(root, "exec", "execution"); s != nil {
			regionExec = append(regionExec, s.DurUs/1e3)
			regionSelf = append(regionSelf, selfUs(s)/1e3)
			vaults := s.FindAll("vault")
			if len(vaults) > 0 {
				var sum, mx float64
				for _, v := range vaults {
					sum += v.DurUs
					mx = max(mx, v.DurUs)
				}
				vaultMax = append(vaultMax, mx/1e3)
				vaultSkew = append(vaultSkew, mx/(sum/float64(len(vaults))))
			}
		}
	}
	mean := 0.0
	for _, b := range batchSize {
		mean += b / float64(len(batchSize))
	}
	med := func(v []float64) float64 { return zeroIfNaN(median(v)) }
	return spanStats{
		Requests:      len(spans),
		EncodeUs:      med(encode),
		DecodeUs:      med(decode),
		TransportUs:   med(transport),
		ServerSelfMs:  med(serverSelf),
		AdmissionMs:   med(admission),
		QueueMs:       med(queue),
		BatchSizeMean: mean,
		BatcherSelfMs: med(batcherSelf),
		RegionExecMs:  med(regionExec),
		RegionSelfMs:  med(regionSelf),
		VaultMaxMs:    med(vaultMax),
		VaultSkew:     med(vaultSkew),
		MutateMs:      med(mutate),
	}
}
