package server

// Tests of the request pipeline itself (serve, status, the gates) over
// scripted backends: what each stage refuses, that a forced trace is
// finished exactly once on every exit, and the three faults the
// per-endpoint handlers had drifted into — a server fault on a write
// answered 400, the built gate waited for a build while holding an
// admission token, and a handler panic lost the answer and the trace.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/obs"
	"ssam/internal/server/wire"
)

// stubBackend is a backend, and a mutator, whose answers the test
// scripts. The zero value is an unbuilt region that succeeds at
// everything; failFrom makes the write path fail from that row on.
type stubBackend struct {
	built    atomic.Bool
	err      error                           // what the search and write paths answer
	failFrom int                             // writes before err applies
	search   func(ctx context.Context) error // overrides err on the search path
	build    func() error                    // Build's body
	writes   atomic.Int64
}

func (b *stubBackend) Load([]float32) error      { return nil }
func (b *stubBackend) Built() bool               { return b.built.Load() }
func (b *stubBackend) Len() int                  { return 0 }
func (b *stubBackend) Pending() int              { return 0 }
func (b *stubBackend) Describe(*wire.RegionInfo) {}
func (b *stubBackend) Free()                     {}

func (b *stubBackend) Build() error {
	if b.build != nil {
		if err := b.build(); err != nil {
			return err
		}
	}
	b.built.Store(true)
	return nil
}

func (b *stubBackend) Search(ctx context.Context, _ []float32, _ int, _ *obs.Span) (answer, error) {
	if b.search != nil {
		return answer{}, b.search(ctx)
	}
	return answer{}, b.err
}

func (b *stubBackend) SearchBatch(qs [][]float32, _ int, _ *obs.Span) (answer, error) {
	return answer{Batch: make([][]ssam.Result, len(qs))}, b.err
}

func (b *stubBackend) write() (uint64, error) {
	if n := b.writes.Add(1); b.err != nil && int(n) > b.failFrom {
		return 0, b.err
	}
	return uint64(b.writes.Load()), nil
}

func (b *stubBackend) Upsert(int, []float32) (uint64, error) { return b.write() }

func (b *stubBackend) Delete(int) (uint64, bool, error) {
	seq, err := b.write()
	return seq, err == nil, err
}

func (b *stubBackend) CompactNow() (ssam.CompactResult, error) { return ssam.CompactResult{}, b.err }

// readOnly hides the stub's write path, as the sharded kind has none.
type readOnly struct{ backend }

// addStub registers a region served by be, the way handleCreate would.
func addStub(s *Server, name string, dims int, be backend) *regionEntry {
	e := &regionEntry{name: name, dims: dims, be: be, stats: newRegionStats(s.registry, name)}
	s.mu.Lock()
	s.regions[name] = e
	s.mu.Unlock()
	return e
}

func builtStub(err error) *stubBackend {
	b := &stubBackend{err: err}
	b.built.Store(true)
	return b
}

// send drives one forced-trace request into the handler.
func send(srv *Server, ctx context.Context, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set(TraceHeader, "1")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestPipelineConformance walks every route through every refusal it
// can produce and checks the status, the shed accounting, and that the
// request's forced trace was finished exactly once: /tracez grows by
// one for a traced route refused after its trace opened (gate,
// admission, run), and by none before that or on the untraced route.
func TestPipelineConformance(t *testing.T) {
	const dims = 4
	vec := []float32{1, 2, 3, 4}
	short := vec[:dims-1]
	fault := errors.New("stub: backend fault")
	immutable := fmt.Errorf("stub: %w", ssam.ErrImmutableEngine)

	srv := New(Options{MaxInFlight: 2, RetryAfter: 3 * time.Second, TraceRing: 1024})
	defer srv.Close()
	addStub(srv, "ok", dims, builtStub(nil))
	addStub(srv, "cold", dims, &stubBackend{})
	addStub(srv, "faulty", dims, builtStub(fault))
	addStub(srv, "frozen", dims, builtStub(immutable))
	addStub(srv, "sharded", dims, readOnly{builtStub(nil)})
	gone := builtStub(nil)
	gone.search = func(ctx context.Context) error { return ctx.Err() }
	addStub(srv, "gone", dims, gone)
	// Reload needs the replicated kind itself: one never built, and one
	// built whose staged rows then vanish, so its next swap fails.
	for _, name := range []string{"coldgroup", "emptygroup"} {
		body := mustJSON(t, wire.CreateRegionRequest{Name: name, Dims: dims, Config: wire.RegionConfig{
			Replicas: &wire.ReplicasConfig{Replicas: 2},
		}})
		if rec := post(srv, "/regions", body); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, rec.Code, rec.Body)
		}
	}
	post(srv, "/regions/emptygroup/load", mustJSON(t, wire.LoadRequest{Vectors: [][]float32{vec, vec}}))
	if rec := post(srv, "/regions/emptygroup/build", nil); rec.Code != http.StatusOK {
		t.Fatalf("build emptygroup: %d %s", rec.Code, rec.Body)
	}
	srv.mu.RLock()
	empty := srv.regions["emptygroup"]
	srv.mu.RUnlock()
	empty.mu.Lock()
	empty.data = nil
	empty.mu.Unlock()

	type routeCase struct {
		name      string
		good      []byte // a body the route accepts (nil: it takes none)
		malformed []byte
		narrow    []byte // right shape, wrong width
		traced    bool
		admitted  bool
		writes    bool
	}
	routes := []routeCase{
		{name: "search", traced: true, admitted: true,
			good:      mustJSON(t, wire.SearchRequest{Query: vec, K: 2}),
			malformed: []byte(`{"query":[1,2,3,4],"k":2,"extra":1}`),
			narrow:    mustJSON(t, wire.SearchRequest{Query: short, K: 2})},
		{name: "searchbatch", traced: true, admitted: true,
			good:      mustJSON(t, wire.SearchBatchRequest{Queries: [][]float32{vec}, K: 2}),
			malformed: []byte(`{"queries":[[1,2,3,4]],"k":0}`),
			narrow:    mustJSON(t, wire.SearchBatchRequest{Queries: [][]float32{vec, short}, K: 2})},
		{name: "upsert", traced: true, admitted: true, writes: true,
			good:      mustJSON(t, wire.UpsertRequest{IDs: []int{1}, Vectors: [][]float32{vec}}),
			malformed: []byte(`{"ids":[-1],"vectors":[[1,2,3,4]]}`),
			narrow:    mustJSON(t, wire.UpsertRequest{IDs: []int{1}, Vectors: [][]float32{short}})},
		{name: "delete", traced: true, admitted: true, writes: true,
			good:      mustJSON(t, wire.DeleteRequest{IDs: []int{1}}),
			malformed: []byte(`{"ids":[]}`)},
		{name: "compact", admitted: true, writes: true},
		{name: "reload", traced: true},
	}

	type refusal struct {
		class  string
		region string
		body   []byte
		want   int  // status; 0: nothing written
		past   bool // refused after the trace opened
		shed   bool // 503 with Retry-After, counted
		full   bool // sent with every admission token taken
		drain  bool // sent to a draining server
	}

	for _, rt := range routes {
		cases := []refusal{{class: "unknown region", region: "nope", body: rt.good, want: http.StatusNotFound}}
		if rt.malformed != nil {
			cases = append(cases, refusal{class: "malformed body", region: "ok", body: rt.malformed, want: http.StatusBadRequest})
		}
		if rt.narrow != nil {
			cases = append(cases, refusal{class: "wrong width", region: "ok", body: rt.narrow, want: http.StatusBadRequest})
		}
		switch {
		case rt.name == "reload":
			cases = append(cases,
				refusal{class: "unbuilt", region: "coldgroup", want: http.StatusConflict, past: true},
				refusal{class: "unreplicated", region: "ok", want: http.StatusConflict, past: true},
				refusal{class: "swap refused", region: "emptygroup", want: http.StatusConflict, past: true})
		case rt.name == "compact":
			cases = append(cases,
				refusal{class: "unbuilt", region: "cold", want: http.StatusConflict, past: true},
				refusal{class: "sharded", region: "sharded", want: http.StatusConflict, past: true},
				refusal{class: "nothing to compact", region: "faulty", want: http.StatusConflict, past: true})
		case rt.writes:
			cases = append(cases,
				refusal{class: "unbuilt", region: "cold", body: rt.good, want: http.StatusConflict, past: true},
				refusal{class: "sharded", region: "sharded", body: rt.good, want: http.StatusConflict, past: true},
				refusal{class: "immutable engine", region: "frozen", body: rt.good, want: http.StatusConflict, past: true},
				refusal{class: "backend fault", region: "faulty", body: rt.good, want: http.StatusInternalServerError, past: true})
		default:
			cases = append(cases,
				refusal{class: "unbuilt", region: "cold", body: rt.good, want: http.StatusConflict, past: true},
				refusal{class: "backend fault", region: "faulty", body: rt.good, want: http.StatusInternalServerError, past: true})
		}
		if rt.name == "search" { // the only route whose backend is handed the request context
			cases = append(cases, refusal{class: "client gone", region: "gone", body: rt.good, past: true})
		}
		if rt.admitted {
			cases = append(cases,
				refusal{class: "shed", region: "ok", body: rt.good, want: http.StatusServiceUnavailable, past: true, shed: true, full: true},
				refusal{class: "draining", region: "ok", body: rt.good, want: http.StatusServiceUnavailable, past: true, shed: true, drain: true},
				// The gate comes first: a request that will be refused takes no token.
				refusal{class: "unbuilt while full", region: "cold", body: rt.good, want: http.StatusConflict, past: true, full: true})
		}

		for _, tc := range cases {
			t.Run(rt.name+"/"+tc.class, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.class == "client gone" {
					cancel()
				}
				held := 0
				if tc.full {
					held = cap(srv.sem)
				}
				for i := 0; i < held; i++ {
					srv.sem <- struct{}{}
				}
				srv.draining.Store(tc.drain)
				defer func() {
					srv.draining.Store(false)
					for i := 0; i < held; i++ {
						<-srv.sem
					}
				}()
				traces, rejected := len(srv.tracer.Snapshot()), srv.rejected.Load()
				rec := send(srv, ctx, "/regions/"+tc.region+"/"+rt.name, tc.body)

				if tc.want == 0 {
					if rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "" {
						t.Fatalf("client gone: wrote %q, want nothing", rec.Body)
					}
				} else {
					var body wire.ErrorResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != tc.want || err != nil || body.Error == "" {
						t.Fatalf("status %d body %q, want %d with a typed error", rec.Code, rec.Body, tc.want)
					}
				}
				wantShed := uint64(0)
				if tc.shed {
					wantShed = 1
					if got := rec.Header().Get("Retry-After"); got != "3" {
						t.Errorf("Retry-After %q, want \"3\"", got)
					}
				}
				if got := srv.rejected.Load() - rejected; got != wantShed {
					t.Errorf("ssam_rejected_total moved by %d, want %d", got, wantShed)
				}
				wantTraces := 0
				if rt.traced && tc.past {
					wantTraces = 1
				}
				if got := len(srv.tracer.Snapshot()) - traces; got != wantTraces {
					t.Errorf("/tracez grew by %d, want %d", got, wantTraces)
				}
				if len(srv.sem) != held {
					t.Errorf("%d admission tokens held after the request, want %d", len(srv.sem), held)
				}
			})
		}
	}

	// And the way through: every route answers 200 on a region that can
	// take it, with its trace finished once.
	for _, rt := range routes {
		region := "ok"
		if rt.name == "reload" {
			region = "emptygroup"
			empty.mu.Lock()
			empty.data = []float32{1, 2, 3, 4, 4, 3, 2, 1}
			empty.mu.Unlock()
		}
		traces := len(srv.tracer.Snapshot())
		rec := send(srv, context.Background(), "/regions/"+region+"/"+rt.name, rt.good)
		wantTraces := 0
		if rt.traced {
			wantTraces = 1
		}
		if got := len(srv.tracer.Snapshot()) - traces; rec.Code != http.StatusOK || got != wantTraces {
			t.Errorf("%s on a ready region: status %d %s, /tracez grew by %d (want 200, %d)", rt.name, rec.Code, rec.Body, got, wantTraces)
		}
	}
}

// TestWriteStatuses: once the decoder and the width check have passed
// there is nothing left a client can get wrong, so a write the backend
// fails is the server's fault (500) unless the engine is immutable
// (409) — and the rows a multi-row write did commit are counted.
func TestWriteStatuses(t *testing.T) {
	const dims = 4
	vec := []float32{1, 2, 3, 4}
	srv := New(Options{})
	defer srv.Close()
	addStub(srv, "faulty", dims, builtStub(errors.New("replica: seq divergence")))
	addStub(srv, "frozen", dims, builtStub(fmt.Errorf("replica 0: %w", ssam.ErrImmutableEngine)))
	partial := builtStub(errors.New("ssam: region has been freed"))
	partial.failFrom = 2
	e := addStub(srv, "partial", dims, partial)

	upsert1 := mustJSON(t, wire.UpsertRequest{IDs: []int{1}, Vectors: [][]float32{vec}})
	delete1 := mustJSON(t, wire.DeleteRequest{IDs: []int{1}})
	for _, tc := range []struct {
		path string
		body []byte
		want int
	}{
		{"/regions/faulty/upsert", upsert1, http.StatusInternalServerError},
		{"/regions/faulty/delete", delete1, http.StatusInternalServerError},
		{"/regions/frozen/upsert", upsert1, http.StatusConflict},
		{"/regions/frozen/delete", delete1, http.StatusConflict},
	} {
		if rec := post(srv, tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("POST %s: status %d %s, want %d", tc.path, rec.Code, rec.Body, tc.want)
		}
	}

	upsert3 := mustJSON(t, wire.UpsertRequest{IDs: []int{1, 2, 3}, Vectors: [][]float32{vec, vec, vec}})
	if rec := post(srv, "/regions/partial/upsert", upsert3); rec.Code != http.StatusInternalServerError {
		t.Fatalf("upsert failing at row 2 of 3: status %d %s, want 500", rec.Code, rec.Body)
	}
	if got := e.stats.writes.Value(); got != 2 {
		t.Fatalf("ssam_region_writes_total = %d after a 3-row upsert that committed 2, want 2", got)
	}
}

// linearServer is a server with one built linear region "bench" of
// rows x dims random vectors.
func linearServer(tb testing.TB, opts Options, rows, dims int) (*Server, [][]float32) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	vecs := make([][]float32, rows)
	for i := range vecs {
		vecs[i] = make([]float32, dims)
		for j := range vecs[i] {
			vecs[i][j] = rng.Float32()
		}
	}
	srv := New(opts)
	tb.Cleanup(srv.Close)
	for _, step := range []struct {
		path string
		body []byte
	}{
		{"/regions", mustJSON(tb, wire.CreateRegionRequest{Name: "bench", Dims: dims})},
		{"/regions/bench/load", mustJSON(tb, wire.LoadRequest{Vectors: vecs})},
		{"/regions/bench/build", nil},
	} {
		if rec := post(srv, step.path, step.body); rec.Code/100 != 2 {
			tb.Fatalf("POST %s: %d %s", step.path, rec.Code, rec.Body)
		}
	}
	return srv, vecs
}

// TestBuiltGateAheadOfAdmission: a region mid-build — its Build holds
// the entry's lock for as long as the index takes — refuses searches at
// once and without a token, so it cannot starve the regions beside it.
func TestBuiltGateAheadOfAdmission(t *testing.T) {
	const rows, dims, k = 64, 8, 5
	srv, vecs := linearServer(t, Options{MaxInFlight: 2}, rows, dims)
	ref := referenceRegion(t, vecs, dims)

	entered, finish := make(chan struct{}), make(chan struct{})
	slow := &stubBackend{}
	e := addStub(srv, "slow", dims, slow)
	slow.build = func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		close(entered)
		<-finish
		return nil
	}
	built := make(chan int, 1)
	go func() { built <- post(srv, "/regions/slow/build", nil).Code }()
	<-entered
	defer func() {
		close(finish)
		if code := <-built; code != http.StatusOK {
			t.Errorf("the held build finished with status %d", code)
		}
	}()

	body := mustJSON(t, wire.SearchRequest{Query: vecs[0], K: k})
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		go func() { codes <- post(srv, "/regions/slow/search", body).Code }()
	}
	deadline := time.After(100 * time.Millisecond)
	for i := 0; i < 8; i++ {
		select {
		case code := <-codes:
			if code != http.StatusConflict {
				t.Fatalf("search of a region mid-build: status %d, want 409", code)
			}
		case <-deadline:
			t.Fatalf("%d of 8 searches of a region mid-build still waiting after 100ms (%d tokens held)", 8-i, len(srv.sem))
		}
		if n := len(srv.sem); n != 0 {
			t.Fatalf("%d admission tokens held by refused searches", n)
		}
	}

	rec := post(srv, "/regions/bench/search", body)
	var got wire.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("search of the built region beside it: status %d %s", rec.Code, rec.Body)
	}
	if want, _ := ref.Search(vecs[0], k); !sameNeighbors(got.Results, want) {
		t.Fatalf("search of the built region beside it = %v, want %v", got.Results, want)
	}
}

// TestRebuildServesThroughout: a built plain region stays built while it
// is rebuilt — the old batcher serves until the new one is swapped in —
// so searchers see only exact 200s across rebuilds.
func TestRebuildServesThroughout(t *testing.T) {
	const rows, dims, k = 64, 8, 5
	srv, vecs := linearServer(t, Options{}, rows, dims)
	ref := referenceRegion(t, vecs, dims)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := vecs[i%rows]
				rec := post(srv, "/regions/bench/search", mustJSON(t, wire.SearchRequest{Query: q, K: k}))
				var got wire.SearchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
					t.Errorf("searcher %d during a rebuild: status %d %s", g, rec.Code, rec.Body)
					return
				}
				if want, _ := ref.Search(q, k); !sameNeighbors(got.Results, want) {
					t.Errorf("searcher %d during a rebuild: %v, want %v", g, got.Results, want)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 40 && !t.Failed(); i++ {
		if rec := post(srv, "/regions/bench/build", nil); rec.Code != http.StatusOK {
			t.Fatalf("rebuild %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	close(stop)
	wg.Wait()
}

// TestHandlerPanicIsContained: a backend that panics under the handler
// costs that request a typed 500 whose trace is kept and whose token is
// returned; the 32 requests in flight beside it get their exact answers.
func TestHandlerPanicIsContained(t *testing.T) {
	const rows, dims, k = 64, 8, 5
	srv, vecs := linearServer(t, Options{}, rows, dims)
	ref := referenceRegion(t, vecs, dims)
	bomb := builtStub(nil)
	bomb.search = func(context.Context) error { panic("stub blew up") }
	addStub(srv, "bomb", dims, bomb)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetries(0))
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.SearchTraced(ctx, "bench", vecs[i], k)
			if want, _ := ref.Search(vecs[i], k); err != nil || resp.Trace == nil || !sameNeighbors(resp.Results, want) {
				t.Errorf("query %d beside the panic = (%+v, %v), want %v with its trace", i, resp, err, want)
			}
		}(i)
	}
	_, err := c.SearchTraced(ctx, "bomb", vecs[0], k)
	wg.Wait()
	if statusOf(err) != http.StatusInternalServerError || !strings.Contains(err.Error(), "panic: stub blew up") {
		t.Fatalf("search of the panicking region = %v, want a 500 naming the panic", err)
	}
	var kept *obs.TraceData
	for _, td := range srv.tracer.Snapshot() {
		if td.Root.Tags["region"] == "bomb" {
			kept = td
		}
	}
	if kept == nil || kept.Root.Tags["panic"] != true || kept.Root.Find("admission") == nil {
		t.Fatalf("the panicking request's trace in the ring = %+v, want one tagged panic=true", kept)
	}
	if n := len(srv.sem); n != 0 {
		t.Fatalf("%d admission tokens held after the panic", n)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz after the panic: %v", err)
	}
}
