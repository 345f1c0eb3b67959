package server

// Containment below the handler, over HTTP: a panic on a goroutine a
// request waited on — the batcher runner executing its batch — is that
// batch's 500, counted in ssam_panics_total{site="worker"} and tagged
// panic=true on each request's trace, while the handler's own recover
// counts site="handler". And a k too large to size anything by is
// answered as the region's row count, on every backend kind.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/obs"
	"ssam/internal/server/batcher"
	"ssam/internal/server/wire"
)

const (
	workerPanics  = `ssam_panics_total{site="worker"}`
	handlerPanics = `ssam_panics_total{site="handler"}`
)

// TestBatchPanicIsThatBatchs500: the plain region's batcher runs its
// search on a runner goroutine; one that panics answers every query of
// that batch 500 "panic: …", and the 32 requests in flight beside it,
// and the next one, their exact answers.
func TestBatchPanicIsThatBatchs500(t *testing.T) {
	const rows, dims, k = 64, 8, 5
	srv, vecs := linearServer(t, Options{}, rows, dims)
	ref := referenceRegion(t, vecs, dims)
	be := srv.regions["bench"].be.(*regionBackend)
	var (
		once  atomic.Bool
		mu    sync.Mutex
		blown = map[float32]bool{} // first coordinate of each query in the batch that panicked
	)
	be.setBatcher(batcher.New(func(qs [][]float32, k int, sp *obs.Span) ([][]ssam.Result, error) {
		if once.CompareAndSwap(false, true) {
			mu.Lock()
			for _, q := range qs {
				blown[q[0]] = true
			}
			mu.Unlock()
			panic("batch blew up")
		}
		res, _, err := be.SearchBatchSpan(qs, k, sp)
		return res, err
	}, batcher.Options{}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, client.WithRetries(0))
	ctx := context.Background()
	before := fetchMetrics(t, ts)

	errs := make([]error, 32)
	resps := make([]wire.SearchResponse, 32)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.SearchTraced(ctx, "bench", vecs[i], k)
		}(i)
	}
	wg.Wait()
	failed := 0
	for i, err := range errs {
		want, _ := ref.Search(vecs[i], k)
		switch {
		case blown[vecs[i][0]]:
			failed++
			if statusOf(err) != http.StatusInternalServerError || !strings.Contains(err.Error(), "panic: batch blew up") {
				t.Errorf("query %d, in the panicking batch = %v, want a 500 naming the panic", i, err)
			}
		case err != nil || !sameNeighbors(resps[i].Results, want):
			t.Errorf("query %d, beside the panic = (%v, %v), want %v", i, resps[i].Results, err, want)
		}
	}
	if failed == 0 {
		t.Fatal("no request was in the batch that panicked")
	}
	if got, err := c.Search(ctx, "bench", vecs[40], k); err != nil || !sameNeighbors(got, mustSearch(t, ref, vecs[40], k)) {
		t.Fatalf("the next search = (%v, %v), want the exact answer", got, err)
	}

	after := fetchMetrics(t, ts)
	if d := after[workerPanics] - before[workerPanics]; d != 1 {
		t.Errorf("%s moved by %v, want 1 (one batch panicked)", workerPanics, d)
	}
	if d := after[handlerPanics] - before[handlerPanics]; d != 0 {
		t.Errorf("%s moved by %v, want 0", handlerPanics, d)
	}
	tagged := 0
	for _, td := range srv.tracer.Snapshot() {
		if td.Root.Tags["panic"] == true {
			tagged++
		}
	}
	if tagged != failed {
		t.Errorf("%d traces tagged panic=true, want one per request in the panicking batch (%d)", tagged, failed)
	}
	if n := len(srv.sem); n != 0 {
		t.Fatalf("%d admission tokens held after the panic", n)
	}
}

// TestHandlerPanicIsCounted: a panic on the handler's own goroutine is
// site="handler", not a worker's.
func TestHandlerPanicIsCounted(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	bomb := builtStub(nil)
	bomb.search = func(context.Context) error { panic("stub blew up") }
	addStub(srv, "bomb", 2, bomb)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	before := fetchMetrics(t, ts)
	if rec := post(srv, "/regions/bomb/search", mustJSON(t, wire.SearchRequest{Query: []float32{1, 2}, K: 1})); rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	after := fetchMetrics(t, ts)
	if d := after[handlerPanics] - before[handlerPanics]; d != 1 {
		t.Errorf("%s moved by %v, want 1", handlerPanics, d)
	}
	if d := after[workerPanics] - before[workerPanics]; d != 0 {
		t.Errorf("%s moved by %v, want 0", workerPanics, d)
	}
}

func mustSearch(t *testing.T, r *ssam.Region, q []float32, k int) []ssam.Result {
	t.Helper()
	res, err := r.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHugeKOverTheWire: a k of 2⁶² is a well-formed request, answered
// with every row — at the parent it was a makeslice panic that took the
// process down — on a plain, a sharded and a replicated region alike,
// and the server serves on.
func TestHugeKOverTheWire(t *testing.T) {
	const rows, dims, huge = 48, 6, 1 << 62
	ctx := context.Background()
	check := func(t *testing.T, c *client.Client, name string, vecs [][]float32) {
		ref := referenceRegion(t, vecs, dims)
		want := mustSearch(t, ref, vecs[1], rows)
		got, err := c.Search(ctx, name, vecs[1], huge)
		if err != nil || !sameNeighbors(got, want) {
			t.Fatalf("/search k=2^62 = (%d neighbours, %v), want all %d, exactly", len(got), err, rows)
		}
		batch, err := c.SearchBatch(ctx, name, vecs[:3], huge)
		if err != nil || len(batch) != 3 {
			t.Fatalf("/searchbatch k=2^62 = (%d lists, %v), want 3", len(batch), err)
		}
		for i, got := range batch {
			if want := mustSearch(t, ref, vecs[i], rows); !sameNeighbors(got, want) {
				t.Fatalf("/searchbatch k=2^62, query %d: %d neighbours, want all %d, exactly", i, len(got), rows)
			}
		}
		if err := c.Health(ctx); err != nil {
			t.Fatalf("healthz after k=2^62: %v", err)
		}
		if got, err := c.Search(ctx, name, vecs[2], 5); err != nil || !sameNeighbors(got, mustSearch(t, ref, vecs[2], 5)) {
			t.Fatalf("search after k=2^62 = (%v, %v)", got, err)
		}
	}
	t.Run("plain", func(t *testing.T) {
		srv, vecs := linearServer(t, Options{}, rows, dims)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		check(t, client.New(ts.URL), "bench", vecs)
	})
	t.Run("sharded", func(t *testing.T) {
		_, c, vecs, cleanup := shardedFixture(t, 3, false, rows, dims)
		defer cleanup()
		check(t, c, "shardy", vecs)
	})
	t.Run("replicated", func(t *testing.T) {
		_, _, c, vecs := replicatedFixture(t, "rep", wire.RegionConfig{Replicas: &wire.ReplicasConfig{Replicas: 2}}, rows, dims)
		check(t, c, "rep", vecs)
	})
}
