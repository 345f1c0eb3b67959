package main

import (
	"context"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"ssam/internal/obs"
	"ssam/internal/server/wire"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	vals := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 17.5}, {0.5, 25}, {0.75, 32.5}, {1, 40},
	} {
		if got := quantile(vals, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN, not a fast-looking 0")
	}
	if !slices.Equal(vals, []float64{40, 10, 30, 20}) {
		t.Error("quantile reordered its input")
	}
}

// Slow windows, however many, must not move a run's numbers as long as
// one window was quiet; a slowdown of every window must.
func TestQuietestWindowShrugsOffBursts(t *testing.T) {
	clean := []float64{200, 201, 199, 200, 202, 198, 200, 201}
	burst := []float64{150, 201, 140, 150, 202, 160, 155, 170}
	if a, b := quietestRate(clean), quietestRate(burst); a != b {
		t.Errorf("slow windows moved the rate from %v to %v", a, b)
	}
	slow := make([]float64, len(clean))
	for i, r := range clean {
		slow[i] = 0.9 * r
	}
	if a, b := quietestRate(clean), quietestRate(slow); !near(b, 0.9*a) {
		t.Errorf("a 10%% regression of every window read %v -> %v", a, b)
	}
	if got := quietestLatency([]float64{13.2, 9.5, 13.1, 12.8, 12.7, 9.6}); got != 9.5 {
		t.Errorf("slow windows moved the latency to %v", got)
	}
	s := summarize([]window{{Rate: 200, searchMs: []float64{9}, SearchP50: 9}, {Rate: 160, searchMs: []float64{12}, SearchP50: 12}})
	if s.QPS != 200 || s.LatP50Ms != 9 || s.Disturbed != 1 || s.QPSMedian != 180 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestBinWindowsProRatesWorkAndFilesLatencyByReply(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	samples := []sample{
		{kind: opSearch, ops: 1, lat: 100 * time.Millisecond, done: at(50)},    // half in warm-up, half in window 0
		{kind: opSearch, ops: 16, lat: 400 * time.Millisecond, done: at(1200)}, // 200ms in window 0, 200ms in window 1
		{kind: opUpsert, ops: 1, lat: 10 * time.Millisecond, done: at(1500)},
		{kind: opSearch, ops: 1, lat: 100 * time.Millisecond, done: at(2050)}, // reply after the last window
	}
	ws := binWindows(samples, start, time.Second, 2)
	if !near(ws[0].Ops, 0.5+8) || !near(ws[1].Ops, 8+1+0.5) {
		t.Errorf("pro-rated ops = %v, %v; want 8.5, 9.5", ws[0].Ops, ws[1].Ops)
	}
	if len(ws[0].searchMs) != 1 || len(ws[1].searchMs) != 1 || len(ws[1].upsertMs) != 1 {
		t.Errorf("latency samples filed wrongly: %+v", ws)
	}
	if !near(ws[1].SearchP50, 400) || !near(ws[0].Rate, 8.5) {
		t.Errorf("window 1 p50 = %v, window 0 rate = %v", ws[1].SearchP50, ws[0].Rate)
	}
}

// A hand-built trace in the server's own shape: a search whose batch
// span holds the batcher's queue and exec, the region's exec inside
// that, and two overlapping vault scans inside the region's.
func handBuiltTrace(start time.Time) *obs.TraceData {
	vaults := []*obs.SpanData{
		{Stage: "vault", StartUs: 2210, DurUs: 4000},
		{Stage: "vault", StartUs: 2220, DurUs: 5000}, // ends at 7220
	}
	region := &obs.SpanData{Stage: "exec", StartUs: 2200, DurUs: 5100, Tags: map[string]any{"execution": "host"}, Children: vaults}
	batcher := &obs.SpanData{Stage: "exec", StartUs: 2150, DurUs: 5200, Tags: map[string]any{"batch_size": 2.0}, Children: []*obs.SpanData{region}}
	queue := &obs.SpanData{Stage: "queue", StartUs: 140, DurUs: 2000}
	batch := &obs.SpanData{Stage: "batch", StartUs: 130, DurUs: 7250, Children: []*obs.SpanData{queue, batcher}}
	admission := &obs.SpanData{Stage: "admission", StartUs: 100, DurUs: 20}
	root := &obs.SpanData{Stage: "search", StartUs: 0, DurUs: 7500, Children: []*obs.SpanData{admission, batch}}
	return &obs.TraceData{ID: "00000001", Name: "search", Start: start, DurUs: 7500, Root: root}
}

func TestSelfTimeOnHandBuiltTrace(t *testing.T) {
	td := handBuiltTrace(time.Unix(1000, 0))
	region := findTagged(td.Root, "exec", "execution")
	// Vaults cover [2210, 7220) as a union, not 9000us as a sum.
	if got := selfUs(region); !near(got, 5100-5010) {
		t.Errorf("region exec self = %v, want 90", got)
	}
	if got := selfUs(findTagged(td.Root, "exec", "batch_size")); !near(got, 100) {
		t.Errorf("batcher exec self = %v, want 100", got)
	}
	if got := selfUs(td.Root); !near(got, 7500-20-7250) {
		t.Errorf("root self = %v, want 230", got)
	}
	if got := selfUs(td.Root.Find("batch")); !near(got, 7250-2000-5200) {
		t.Errorf("batch self = %v, want 50", got)
	}
	// A child that sticks out of its parent is clipped to it.
	p := &obs.SpanData{StartUs: 0, DurUs: 100, Children: []*obs.SpanData{{StartUs: 50, DurUs: 500}}}
	if got := selfUs(p); !near(got, 50) {
		t.Errorf("clipped self = %v, want 50", got)
	}
}

func TestClientSpanJoinsServerTree(t *testing.T) {
	t0 := time.Unix(1000, 0)
	us := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Microsecond) }
	span := requestSpan{
		start: us(0), end: us(8000),
		rt: roundTrip{start: us(30), end: us(7900), server: handBuiltTrace(us(200))},
	}
	tree := span.tree()
	root := tree.Children[1].Children[0]
	if !near(root.StartUs, 200) || !near(root.Find("queue").StartUs, 340) {
		t.Errorf("server tree not re-based onto the client clock: root %v queue %v", root.StartUs, root.Find("queue").StartUs)
	}
	if td := span.rt.server; td.Root.StartUs != 0 {
		t.Error("re-basing modified the server's own tree")
	}
	s := reduceSpans([]requestSpan{span})
	want := spanStats{
		Requests: 1, EncodeUs: 30, DecodeUs: 100, TransportUs: 7870 - 7500,
		ServerSelfMs: 0.23, AdmissionMs: 0.02, QueueMs: 2, BatchSizeMean: 2, BatcherSelfMs: 0.1,
		RegionExecMs: 5.1, RegionSelfMs: 0.09, VaultMaxMs: 5, VaultSkew: 5000.0 / 4500.0,
	}
	if !near(s.TransportUs, want.TransportUs) || !near(s.ServerSelfMs, want.ServerSelfMs) ||
		!near(s.RegionSelfMs, want.RegionSelfMs) || !near(s.VaultSkew, want.VaultSkew) ||
		!near(s.EncodeUs, want.EncodeUs) || !near(s.DecodeUs, want.DecodeUs) ||
		!near(s.QueueMs, want.QueueMs) || !near(s.BatcherSelfMs, want.BatcherSelfMs) ||
		s.BatchSizeMean != 2 {
		t.Errorf("reduceSpans = %+v\nwant        %+v", s, want)
	}
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(w, fullScale, 7, 500), streamHash(w, fullScale, 7, 500)
		if a != b {
			t.Errorf("%s: same seed, different streams", w.name)
		}
		if c := streamHash(w, fullScale, 8, 500); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
	a, b := generate(smokeScale, 3), generate(smokeScale, 3)
	if !slices.Equal(a.data, b.data) || !slices.Equal(a.queries[5], b.queries[5]) {
		t.Error("same seed, different dataset")
	}
	if c := generate(smokeScale, 4); slices.Equal(a.data, c.data) {
		t.Error("seeds 3 and 4 gave the same dataset")
	}
}

func TestWritersKeepToTheirOwnIDs(t *testing.T) {
	w, _ := findWorkload("mixed_rw")
	kinds := map[opKind]int{}
	for c := 0; c < 2; c++ {
		s := newOpStream(w, smokeScale, 1, 0, c, 2)
		for i := 0; i < 5000; i++ {
			o := s.next()
			kinds[o.kind]++
			if o.kind != opSearch && (o.id%2 != c || o.id < 0 || o.id >= smokeScale.idSpace()) {
				t.Fatalf("client %d wrote id %d", c, o.id)
			}
		}
	}
	if s, u, d := kinds[opSearch], kinds[opUpsert], kinds[opDelete]; s < 7700 || s > 8300 || u < 1300 || u > 1700 || d < 350 || d > 650 {
		t.Errorf("mix off 80/15/5: %d searches, %d upserts, %d deletes", s, u, d)
	}
}

func TestOracleAndModelReplay(t *testing.T) {
	in := generate(smokeScale, 2)
	m := model{}
	m.apply(op{kind: opDelete, id: 0})
	m.apply(op{kind: opUpsert, id: 1, pool: 3})
	m.apply(op{kind: opUpsert, id: smokeScale.N + 5, pool: 4}) // an insert past the loaded rows
	m.apply(op{kind: opUpsert, id: 2, pool: 5})
	m.apply(op{kind: opDelete, id: 2}) // last write wins
	ids, rows := in.liveRows([]model{m})
	if len(ids) != smokeScale.N-2+1 || ids[0] != 1 || !sort.IntsAreSorted(ids) {
		t.Fatalf("liveRows: %d rows, first id %d", len(ids), ids[0])
	}
	if &rows[0][0] != &in.pool[3][0] || ids[len(ids)-1] != smokeScale.N+5 {
		t.Error("upserted rows not taken from the pool")
	}
	// Each of those pool vectors is its own nearest neighbour, under
	// the id the model gave it.
	got := oracleTopK(ids, rows, [][]float32{in.pool[3], in.pool[4]}, 3)
	if got[0][0] != 1 || got[1][0] != smokeScale.N+5 {
		t.Errorf("oracle nearest = %v, %v", got[0], got[1])
	}
	// Ties break towards the lower id.
	dup := [][]float32{{1, 1}, {0, 0}, {1, 1}, {0, 0}}
	if tied := bruteForce([]int{9, 7, 3, 8}, dup, []float32{0, 0}, 3); !slices.Equal(tied, []int{7, 8, 3}) {
		t.Errorf("tie order = %v, want [7 8 3]", tied)
	}
}

func TestCheckAnswer(t *testing.T) {
	ok := []wire.Neighbor{{ID: 4, Distance: 0.5}, {ID: 2, Distance: 0.7}, {ID: 9, Distance: 0.7}}
	if err := checkAnswer(ok, 3, 10); err != nil {
		t.Errorf("valid answer rejected: %v", err)
	}
	bad := map[string][]wire.Neighbor{
		"short":        ok[:2],
		"unsorted":     {ok[1], ok[0], ok[2]},
		"tie order":    {ok[0], ok[2], ok[1]},
		"duplicate":    {ok[0], {ID: 4, Distance: 0.6}, ok[2]},
		"out of range": {ok[0], ok[1], {ID: 10, Distance: 0.9}},
		"negative id":  {{ID: -1, Distance: 0.1}, ok[0], ok[1]},
		"nan":          {ok[0], ok[1], {ID: 5, Distance: math.NaN()}},
	}
	for name, res := range bad {
		if checkAnswer(res, 3, 10) == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
	if got := recall([]int{4, 2, 7}, ok); !near(got, 2.0/3) {
		t.Errorf("recall = %v, want 2/3", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := manifestMetric{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name   string
		a, b   []float64
		m      manifestMetric
		status string
	}{
		{"same", []float64{10}, []float64{10.5}, lower, "ok"},
		{"slower", []float64{10}, []float64{11.5}, lower, "worse"},
		{"faster", []float64{10}, []float64{8}, lower, "ok"},
		{"fewer qps", []float64{200}, []float64{170}, higher, "worse"},
		{"more qps", []float64{200}, []float64{260}, higher, "ok"},
		{"too scattered to tell", []float64{10, 12, 9}, []float64{11, 10, 12.5}, lower, "unresolved"},
		{"worse past its own scatter", []float64{10, 10.2, 9.9}, []float64{13, 12.8, 13.3}, lower, "worse"},
	} {
		if _, _, got := verdict(c.a, c.b, c.m); got != c.status {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.status)
		}
	}
}

// A side that sheds or botches operations is worse whatever its timings
// say, and the timings of its incorrect runs are not compared at all.
func TestCompareCountsFailuresBeforeTimings(t *testing.T) {
	run := func(correct bool, attempted, failed int, qps float64) *result {
		return &result{
			Envelope: envelope{Workload: "linear_single"}, Correct: correct, Attempted: attempted, Failed: failed,
			Metrics: map[string]metricValue{"qps": {Value: qps, Unit: "1/s"}},
		}
	}
	a := &resultFile{Runs: []*result{run(true, 1000, 0, 200), run(true, 1000, 0, 202)}}
	b := &resultFile{Runs: []*result{run(true, 1000, 0, 201), run(false, 1000, 300, 290)}}
	if got := b.values("linear_single", "qps"); !slices.Equal(got, []float64{201}) {
		t.Errorf("values kept an incorrect run: %v", got)
	}
	ha, hb := a.health("linear_single"), b.health("linear_single")
	if !hb.worseThan(ha) || ha.worseThan(hb) || ha.worseThan(ha) {
		t.Errorf("health a = %v, b = %v: b must be worse, a must not", ha, hb)
	}
	traced := run(false, 10, 10, 1)
	traced.Envelope.Traced = true
	if h := (&resultFile{Runs: []*result{traced}}).health("linear_single"); h.runs != 0 {
		t.Errorf("a traced run counted towards health: %v", h)
	}
}

// Every workload, end to end and traced, at sizes that take a moment:
// this checks that the code runs and that the names it prints are the
// names BENCHMARK.json promises, not that the numbers mean anything.
func TestSmokeRunsPrintWhatTheManifestPromises(t *testing.T) {
	man, err := readManifest("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, harness has %d", len(man.Workloads), len(workloads))
	}
	for i, mw := range man.Workloads {
		w := workloads[i]
		if mw.Name != w.name || mw.Why != w.why {
			t.Fatalf("manifest workload %d is %q (%s), harness has %q (%s)", i, mw.Name, mw.Why, w.name, w.why)
		}
		for traced, metrics := range map[bool][]manifestMetric{false: man.EndToEnd, true: man.PerLayer} {
			t.Run(map[bool]string{false: "e2e/", true: "traced/"}[traced]+w.name, func(t *testing.T) {
				t.Parallel()
				run := runConfig{w: w, sc: smokeScale, seed: 1, measure: 300 * time.Millisecond, smoke: true}
				runFn := runEndToEnd
				if traced {
					runFn = runTraced
				}
				res, err := runFn(context.Background(), run)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, res.Why)
				}
				if len(res.Metrics) != len(metrics) {
					t.Errorf("run printed %d metrics, manifest lists %d", len(res.Metrics), len(metrics))
				}
				for _, m := range metrics {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("manifest metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s printed in %q, manifest says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !traced && w.recallFloor == 1 && res.Metrics["recall_at_10"].Value != 1 {
					t.Errorf("exact workload recall = %v", res.Metrics["recall_at_10"].Value)
				}
			})
		}
	}
}
