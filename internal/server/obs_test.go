package server

// Observability acceptance tests: /metrics must render parseable
// Prometheus text whose counters match known traffic exactly, and a
// forced trace through a sharded region must carry the full span tree
// — admission, batch, per-shard fan-out attempts, merge — with
// sequential stages not overlapping.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/obs"
	"ssam/internal/server/wire"
)

// obsTestData builds a deterministic dataset: n rows of the given
// dim, plus nq query vectors. (The external server_test suite has its
// own testData; this package-internal suite cannot share it.)
func obsTestData(n, nq, dim int) (rows, queries [][]float32) {
	rng := rand.New(rand.NewSource(42))
	gen := func(count int) [][]float32 {
		out := make([][]float32, count)
		for i := range out {
			v := make([]float32, dim)
			for d := range v {
				v[d] = rng.Float32()
			}
			out[i] = v
		}
		return out
	}
	return gen(n), gen(nq)
}

// promLineRE matches one sample line of the text exposition format:
// name{labels} value.
var promLineRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)

// parsePrometheus validates every line of a /metrics body and returns
// the samples keyed by full series name (name plus rendered labels).
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]bool) // families with a preceding # TYPE
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[3])
			}
			typed[parts[2]] = true
			continue
		}
		m := promLineRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: not a valid exposition sample: %q", ln+1, line)
		}
		fam := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suffix); base != fam && typed[base] {
				fam = base
				break
			}
		}
		if !typed[fam] {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, m[1])
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, m[3], err)
		}
		samples[m[1]+m[2]] = v
	}
	return samples
}

// fetchMetrics scrapes ts's /metrics and parses it.
func fetchMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET /metrics: read: %v", err)
	}
	return parsePrometheus(t, string(body))
}

// checkBatchesCounted drives n /search requests and one 3-query
// /searchbatch at region and checks that the region counted every batch
// its backend executed: n of one, then the one of three.
func checkBatchesCounted(t *testing.T, srv *Server, c *client.Client, region string, vecs [][]float32) {
	t.Helper()
	const n = 4
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := c.Search(ctx, region, vecs[i], 2); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	if _, err := c.SearchBatch(ctx, region, vecs[:3], 2); err != nil {
		t.Fatalf("searchbatch: %v", err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	samples := parsePrometheus(t, rec.Body.String())
	lbl := `{region="` + region + `"}`
	if got := samples["ssam_region_batches_total"+lbl]; got != n+1 {
		t.Errorf("ssam_region_batches_total = %v, want %d", got, n+1)
	}
	if got := samples[`ssam_region_batch_size_bucket{region="`+region+`",le="1"}`]; got != n {
		t.Errorf("batch_size le=1 bucket = %v, want %d", got, n)
	}
	if got := samples["ssam_region_queries_total"+lbl]; got != n+3 {
		t.Errorf("ssam_region_queries_total = %v, want %d", got, n+3)
	}
}

// TestMetricsEndpoint drives known traffic at an unsharded region and
// asserts the /metrics exposition parses and its counters match the
// traffic exactly.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	rows, queries := obsTestData(40, 8, 4)
	if _, err := c.CreateRegion(ctx, "mx", 4, wire.RegionConfig{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Load(ctx, "mx", rows); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Build(ctx, "mx"); err != nil {
		t.Fatalf("build: %v", err)
	}

	const singles = 5
	for i := 0; i < singles; i++ {
		if _, err := c.Search(ctx, "mx", queries[i%len(queries)], 3); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	batch := [][]float32{queries[0], queries[1], queries[2]}
	if _, err := c.SearchBatch(ctx, "mx", batch, 3); err != nil {
		t.Fatalf("searchbatch: %v", err)
	}

	samples := fetchMetrics(t, ts)
	wantQueries := float64(singles + len(batch))
	if got := samples[`ssam_region_queries_total{region="mx"}`]; got != wantQueries {
		t.Errorf("ssam_region_queries_total = %v, want %v", got, wantQueries)
	}
	// recordQueries runs once per request: 5 singles + 1 batch request.
	wantLatCount := float64(singles + 1)
	if got := samples[`ssam_region_latency_seconds_count{region="mx"}`]; got != wantLatCount {
		t.Errorf("ssam_region_latency_seconds_count = %v, want %v", got, wantLatCount)
	}
	if got := samples[`ssam_region_latency_seconds_bucket{region="mx",le="+Inf"}`]; got != wantLatCount {
		t.Errorf("latency +Inf bucket = %v, want %v (cumulative buckets must end at _count)", got, wantLatCount)
	}
	if got := samples[`ssam_region_latency_seconds_sum{region="mx"}`]; got <= 0 {
		t.Errorf("ssam_region_latency_seconds_sum = %v, want > 0", got)
	}
	// The singles arrive one at a time at an idle batcher, so each
	// leaves at once as a batch of one; the explicit batch of 3 lands in
	// the le="4" size bucket and above (cumulative).
	if got := samples[`ssam_region_batches_total{region="mx"}`]; got != singles+1 {
		t.Errorf("ssam_region_batches_total = %v, want %d", got, singles+1)
	}
	if got := samples[`ssam_region_batch_size_bucket{region="mx",le="1"}`]; got != singles {
		t.Errorf("batch_size le=1 bucket = %v, want %d", got, singles)
	}
	// Only micro-batcher batches have a queue to wait in, and what an
	// idle batcher makes a query wait is a small part of its latency.
	if got := samples[`ssam_region_queue_seconds_count{region="mx"}`]; got != singles {
		t.Errorf("ssam_region_queue_seconds_count = %v, want %d", got, singles)
	}
	if got := samples[`ssam_region_queue_seconds_bucket{region="mx",le="+Inf"}`]; got != singles {
		t.Errorf("queue_seconds +Inf bucket = %v, want %d", got, singles)
	}
	if q, l := samples[`ssam_region_queue_seconds_sum{region="mx"}`], samples[`ssam_region_latency_seconds_sum{region="mx"}`]; q < 0 || q >= l {
		t.Errorf("ssam_region_queue_seconds_sum = %v, want within [0, latency sum %v)", q, l)
	}
	if got := samples[`ssam_region_batch_size_bucket{region="mx",le="64"}`]; got < 1 {
		t.Errorf("batch_size le=64 bucket = %v, want >= 1", got)
	}
	if got := samples[`ssam_rejected_total`]; got != 0 {
		t.Errorf("ssam_rejected_total = %v, want 0", got)
	}
	if got := samples[`ssam_inflight`]; got != 0 {
		t.Errorf("ssam_inflight = %v, want 0 at rest", got)
	}
	if got := samples[`ssam_uptime_seconds`]; got <= 0 {
		t.Errorf("ssam_uptime_seconds = %v, want > 0", got)
	}
	if got := samples[`ssam_region_queue_depth{region="mx"}`]; got != 0 {
		t.Errorf("ssam_region_queue_depth = %v, want 0 at rest", got)
	}
	// Which scan kernel this host runs: one info series, mirrored in
	// /statsz.
	kernel := ssam.ScanKernel()
	if kernel != "avx2" && kernel != "go" {
		t.Errorf("ScanKernel = %q, want avx2 or go", kernel)
	}
	if got := samples[`ssam_scan_kernel{kernel="`+kernel+`"}`]; got != 1 {
		t.Errorf("ssam_scan_kernel{kernel=%q} = %v, want 1", kernel, got)
	}
	var stats wire.StatsResponse
	httpGetJSON(t, srv, "/statsz", &stats)
	if stats.ScanKernel != kernel {
		t.Errorf("/statsz scan_kernel = %q, want %q", stats.ScanKernel, kernel)
	}

	// Freeing the region must drop its series from the exposition.
	if err := c.Free(ctx, "mx"); err != nil {
		t.Fatalf("free: %v", err)
	}
	after := fetchMetrics(t, ts)
	for series := range after {
		if strings.Contains(series, `region="mx"`) {
			t.Errorf("series %s still exposed after free", series)
		}
	}
	if _, ok := after[`ssam_uptime_seconds`]; !ok {
		t.Errorf("server-level series missing after region free")
	}
}

// spansOverlap reports whether two sibling spans overlap in time
// (beyond exact boundary adjacency).
func spansOverlap(a, b *obs.SpanData) bool {
	if a.StartUs > b.StartUs {
		a, b = b, a
	}
	return a.StartUs+a.DurUs > b.StartUs
}

// TestShardedTraceSpans forces a trace through a sharded region and
// asserts the span tree carries every serving stage with sequential
// stages non-overlapping.
func TestShardedTraceSpans(t *testing.T) {
	const shards = 3
	srv, c, _, cleanup := shardedFixture(t, shards, false, 60, 6)
	defer cleanup()
	ctx := context.Background()

	resp, err := c.SearchTraced(ctx, "shardy", []float32{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 4)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	td := resp.Trace
	if td == nil {
		t.Fatal("X-SSAM-Trace request returned no trace")
	}
	if td.Root == nil || td.Root.Stage != "search" {
		t.Fatalf("root stage = %+v, want search", td.Root)
	}
	if td.Root.Tags["region"] != "shardy" {
		t.Errorf("root region tag = %v, want shardy", td.Root.Tags["region"])
	}

	adm := td.Root.Find("admission")
	if adm == nil {
		t.Fatal("trace has no admission span")
	}
	batch := td.Root.Find("batch")
	if batch == nil {
		t.Fatal("trace has no batch span")
	}
	if bypass, _ := batch.Tags["bypass"].(bool); !bypass {
		t.Errorf("sharded batch span not tagged bypass=true: %v", batch.Tags)
	}
	fanout := batch.Find("fanout")
	if fanout == nil {
		t.Fatal("trace has no fanout span")
	}
	merge := batch.Find("merge")
	if merge == nil {
		t.Fatal("trace has no merge span")
	}
	attempts := fanout.FindAll("shard")
	if len(attempts) != shards {
		t.Fatalf("got %d shard attempt spans, want %d", len(attempts), shards)
	}
	seen := make(map[float64]bool)
	for _, a := range attempts {
		si, ok := a.Tags["shard"].(float64) // JSON numbers decode as float64
		if !ok {
			t.Fatalf("shard span missing shard tag: %v", a.Tags)
		}
		seen[si] = true
		if a.Find("exec") == nil {
			t.Errorf("shard %v attempt has no exec span", si)
		}
	}
	if len(seen) != shards {
		t.Errorf("attempts cover %d distinct shards, want %d", len(seen), shards)
	}

	// Sequential stages must not overlap: admission precedes batch,
	// and within the batch the fan-out completes before the merge.
	if spansOverlap(adm, batch) {
		t.Errorf("admission [%v+%v] overlaps batch [%v+%v]", adm.StartUs, adm.DurUs, batch.StartUs, batch.DurUs)
	}
	if spansOverlap(fanout, merge) {
		t.Errorf("fanout [%v+%v] overlaps merge [%v+%v]", fanout.StartUs, fanout.DurUs, merge.StartUs, merge.DurUs)
	}
	for _, sp := range []*obs.SpanData{adm, batch, fanout, merge} {
		if sp.DurUs < 0 || sp.StartUs < 0 {
			t.Errorf("span %s has negative timing: start %v dur %v", sp.Stage, sp.StartUs, sp.DurUs)
		}
	}

	// The finished trace must also be retained in the /tracez ring.
	var ring []*obs.TraceData
	httpGetJSON(t, srv, "/tracez", &ring)
	if len(ring) == 0 {
		t.Fatal("/tracez is empty after a forced trace")
	}
	if ring[0].ID != td.ID {
		t.Errorf("/tracez newest trace ID = %s, want %s", ring[0].ID, td.ID)
	}
}

// TestUnshardedTraceSpans asserts the micro-batched path's span shape:
// the batch span holds queue and exec children.
func TestUnshardedTraceSpans(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	rows, queries := obsTestData(30, 4, 4)
	if _, err := c.CreateRegion(ctx, "tx", 4, wire.RegionConfig{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Load(ctx, "tx", rows); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Build(ctx, "tx"); err != nil {
		t.Fatalf("build: %v", err)
	}
	resp, err := c.SearchTraced(ctx, "tx", queries[0], 2)
	if err != nil {
		t.Fatalf("traced search: %v", err)
	}
	if resp.Trace == nil {
		t.Fatal("no trace returned")
	}
	batch := resp.Trace.Root.Find("batch")
	if batch == nil {
		t.Fatal("no batch span")
	}
	queue := batch.Find("queue")
	exec := batch.Find("exec")
	if queue == nil || exec == nil {
		t.Fatalf("batch span children missing queue/exec: %+v", batch.Children)
	}
	if spansOverlap(queue, exec) {
		t.Errorf("queue [%v+%v] overlaps exec [%v+%v]", queue.StartUs, queue.DurUs, exec.StartUs, exec.DurUs)
	}
	if _, ok := exec.Tags["batch_size"]; !ok {
		t.Errorf("exec span missing batch_size tag: %v", exec.Tags)
	}
	// The region's own exec span, under the batcher's, names the scan
	// kernel the host ran it with.
	var kernels []any
	for _, sp := range exec.FindAll("exec") {
		if k, ok := sp.Tags["kernel"]; ok {
			kernels = append(kernels, k)
		}
	}
	if len(kernels) != 1 || kernels[0] != ssam.ScanKernel() {
		t.Errorf("exec spans carry kernel tags %v, want one %q", kernels, ssam.ScanKernel())
	}

	// An untraced request must not land in /tracez (ambient sampling
	// is off by default).
	if _, err := c.Search(ctx, "tx", queries[1], 2); err != nil {
		t.Fatalf("search: %v", err)
	}
	var ring []*obs.TraceData
	httpGetJSON(t, srv, "/tracez", &ring)
	if len(ring) != 1 {
		t.Fatalf("/tracez has %d traces, want exactly the 1 forced trace", len(ring))
	}
}

// TestAmbientSampling checks head-based sampling: with
// TraceSampleEvery=2, half the requests land in the ring.
func TestAmbientSampling(t *testing.T) {
	srv := New(Options{TraceSampleEvery: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	rows, queries := obsTestData(30, 4, 4)
	if _, err := c.CreateRegion(ctx, "sx", 4, wire.RegionConfig{}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Load(ctx, "sx", rows); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Build(ctx, "sx"); err != nil {
		t.Fatalf("build: %v", err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := c.Search(ctx, "sx", queries[i%len(queries)], 2); err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	var ring []*obs.TraceData
	httpGetJSON(t, srv, "/tracez", &ring)
	if len(ring) != n/2 {
		t.Errorf("/tracez has %d traces after %d requests at 1-in-2, want %d", len(ring), n, n/2)
	}
}

// httpGetJSON drives the server handler in-process and decodes the
// JSON response.
func httpGetJSON(t *testing.T, srv *Server, path string, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}
