package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// testData builds a deterministic dataset: n rows of the given dim,
// plus nq query vectors.
func testData(n, nq, dim int) (rows, queries [][]float32) {
	rng := rand.New(rand.NewSource(42))
	gen := func(count int) [][]float32 {
		out := make([][]float32, count)
		for i := range out {
			v := make([]float32, dim)
			for d := range v {
				v[d] = float32(rng.NormFloat64())
			}
			out[i] = v
		}
		return out
	}
	return gen(n), gen(nq)
}

func flatten(rows [][]float32) []float32 {
	var out []float32
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// TestEndToEndServing is the acceptance test: stand the server up on
// an ephemeral port, drive the full Fig. 4 sequence over HTTP, then
// issue 64 concurrent client queries and check (a) the answers match
// direct Region.Search, and (b) /statsz accounts every query to a
// micro-batcher batch. How many queries share a batch depends on how
// busy the cores were, so coalescing itself is pinned where it can be
// forced: the batcher package's gate-held tests.
func TestEndToEndServing(t *testing.T) {
	const (
		n, dim = 400, 16
		k      = 5
		conc   = 64
	)
	rows, queries := testData(n, conc, dim)

	srv := server.New(server.Options{
		MaxInFlight: 256,
		MaxBatch:    32,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(time.Minute))

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateRegion(ctx, "glove", dim, wire.RegionConfig{Mode: "linear"}); err != nil {
		t.Fatal(err)
	}
	info, err := c.Load(ctx, "glove", rows)
	if err != nil {
		t.Fatal(err)
	}
	if info.Len != n {
		t.Fatalf("loaded len %d, want %d", info.Len, n)
	}
	if info, err = c.Build(ctx, "glove"); err != nil {
		t.Fatal(err)
	}
	if !info.Built {
		t.Fatal("region not marked built after build")
	}

	// Ground truth from a direct in-process Region with the same data.
	direct, err := ssam.New(dim, ssam.Config{Mode: ssam.Linear})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Free()
	if err := direct.LoadFloat32(flatten(rows)); err != nil {
		t.Fatal(err)
	}
	if err := direct.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	// conc concurrent single-query requests released by a barrier.
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([][]wire.Neighbor, conc)
	errs := make([]error, conc)
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = c.Search(ctx, "glove", queries[i], k)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < conc; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := direct.Search(queries[i], k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("query %d: got %d neighbors, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j].ID != want[j].ID {
				t.Fatalf("query %d neighbor %d: served id %d, direct id %d",
					i, j, got[i][j].ID, want[j].ID)
			}
			if diff := got[i][j].Distance - want[j].Dist; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("query %d neighbor %d: served dist %v, direct %v",
					i, j, got[i][j].Distance, want[j].Dist)
			}
		}
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := stats.Regions["glove"]
	if !ok {
		t.Fatalf("statsz has no region glove: %+v", stats)
	}
	if rs.Queries != conc {
		t.Fatalf("statsz queries = %d, want %d", rs.Queries, conc)
	}
	if rs.MaxBatchSeen < 1 || rs.MaxBatchSeen > 32 {
		t.Fatalf("max batch seen = %d, want within [1, MaxBatch=32]", rs.MaxBatchSeen)
	}
	if rs.Batches == 0 || rs.Batches > conc {
		t.Fatalf("batches = %d for %d queries", rs.Batches, conc)
	}
	if rs.LatencyP99Ms <= 0 || rs.QPS <= 0 {
		t.Fatalf("latency/qps not recorded: %+v", rs)
	}
	var histTotal uint64
	for _, b := range rs.BatchSizes {
		histTotal += b.Count
	}
	if histTotal != rs.Batches {
		t.Fatalf("batch histogram sums to %d, batches = %d", histTotal, rs.Batches)
	}
}

// TestRegistryLifecycle covers create/list/info/free plus the error
// paths: duplicate create, unknown region, search before build, and
// rejected configs.
func TestRegistryLifecycle(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL)

	if _, err := c.CreateRegion(ctx, "a", 4, wire.RegionConfig{Mode: "kdtree"}); err != nil {
		t.Fatal(err)
	}
	var se *client.StatusError
	if _, err := c.CreateRegion(ctx, "a", 4, wire.RegionConfig{}); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %v, want 409", err)
	}
	if _, err := c.CreateRegion(ctx, "bad", 4, wire.RegionConfig{Metric: "chebyshev"}); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("bad metric = %v, want 400", err)
	}
	if _, err := c.CreateRegion(ctx, "bad", 4, wire.RegionConfig{Metric: "hamming"}); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("hamming over the wire = %v, want 400", err)
	}
	if _, err := c.Search(ctx, "a", []float32{1, 2, 3, 4}, 2); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("search before build = %v, want 409", err)
	}
	if _, err := c.Search(ctx, "missing", []float32{1}, 2); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("search on missing region = %v, want 404", err)
	}

	rows, _ := testData(32, 1, 4)
	if _, err := c.Load(ctx, "a", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadAppend(ctx, "a", rows); err != nil {
		t.Fatal(err)
	}
	info, err := c.Region(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Len != 64 {
		t.Fatalf("append load: len %d, want 64", info.Len)
	}
	if _, err := c.Build(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	list, err := c.Regions(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("regions list = %v, %v", list, err)
	}
	batch, err := c.SearchBatch(ctx, "a", rows[:3], 2)
	if err != nil || len(batch) != 3 {
		t.Fatalf("searchbatch = %v, %v", batch, err)
	}
	if err := c.Free(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Region(ctx, "a"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("info after free = %v, want 404", err)
	}
}

// TestDrainSheds checks graceful-shutdown behavior: after StartDrain,
// new searches are shed with 503 while the registry stays readable.
func TestDrainSheds(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithRetries(0))

	rows, queries := testData(16, 1, 4)
	if _, err := c.CreateRegion(ctx, "a", 4, wire.RegionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "a", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(ctx, "a", queries[0], 2); err != nil {
		t.Fatal(err)
	}
	srv.StartDrain()
	if _, err := c.Search(ctx, "a", queries[0], 2); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("search while draining = %v, want ErrOverloaded", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Draining {
		t.Fatal("statsz does not report draining")
	}
}

// TestDeviceRegionOverWire serves a simulated-device region end to
// end, covering the mu-serialized device path under HTTP concurrency.
func TestDeviceRegionOverWire(t *testing.T) {
	const dim = 12
	rows, queries := testData(128, 8, dim)
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(2*time.Minute))

	cfg := wire.RegionConfig{Execution: "device", VectorLength: 4}
	if _, err := c.CreateRegion(ctx, "dev", dim, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "dev", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "dev"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Search(ctx, "dev", queries[i], 3)
			if err != nil {
				errc <- err
				return
			}
			if len(res) != 3 {
				errc <- fmt.Errorf("device query %d: %d results", i, len(res))
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
