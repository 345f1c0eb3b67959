package server_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// TestTieredRegionEndToEnd drives a storage-backed region through the
// full client → server → region path: the storage block must survive
// the wire, the served answers must equal a direct in-process region
// holding everything in RAM (the bit-exactness contract), and the
// storage tier's cache counters must show up in /statsz and /metrics.
// The budget is a tenth of the dataset, so the server is genuinely
// evicting and re-reading pages while it serves.
func TestTieredRegionEndToEnd(t *testing.T) {
	const (
		n, dim = 600, 16
		k      = 5
		nq     = 16
	)
	rows, queries := testData(n, nq, dim)

	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(time.Minute))

	cfg := wire.RegionConfig{
		Vaults: 4,
		Storage: &wire.StorageConfig{
			Path:        filepath.Join(t.TempDir(), "big.tier"),
			BudgetBytes: n * dim * 4 / 10,
			Prefetch:    true,
		},
	}
	if _, err := c.CreateRegion(ctx, "big", dim, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "big", rows); err != nil {
		t.Fatal(err)
	}
	info, err := c.Build(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Built || info.Len != n {
		t.Fatalf("post-build info: %+v", info)
	}
	if got := info.Config.Storage; got == nil || got.BudgetBytes != cfg.Storage.BudgetBytes || !got.Prefetch {
		t.Fatalf("storage config did not survive the wire: %+v", got)
	}

	direct, err := ssam.New(dim, ssam.Config{Vaults: 4})
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

	for i, q := range queries {
		served, err := c.Search(ctx, "big", q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(served) != len(want) {
			t.Fatalf("query %d: served %d results, want %d", i, len(served), len(want))
		}
		for j := range want {
			if served[j].ID != want[j].ID || served[j].Distance != want[j].Dist {
				t.Fatalf("query %d rank %d: served %+v, want %+v", i, j, served[j], want[j])
			}
		}
	}

	// Batch path through the same region.
	batch, err := c.SearchBatch(ctx, "big", queries[:8], k)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range batch {
		if len(row) != k {
			t.Fatalf("batch row %d: %d results", i, len(row))
		}
	}

	// /statsz carries the storage-tier block, and with a 1/10 budget
	// over 4 vault pages the scans must have missed and evicted.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := st.Regions["big"]
	if !ok {
		t.Fatalf("region missing from /statsz: %+v", st.Regions)
	}
	if rs.Tiered == nil {
		t.Fatal("statsz tiered block missing for a storage-backed region")
	}
	if rs.Tiered.Reads == 0 || rs.Tiered.BytesRead == 0 {
		t.Errorf("tiered block shows no backing reads: %+v", rs.Tiered)
	}
	if rs.Tiered.CacheMisses == 0 {
		t.Errorf("a 1/10 budget produced no cache misses: %+v", rs.Tiered)
	}
	if rs.Tiered.BudgetBytes != cfg.Storage.BudgetBytes {
		t.Errorf("budget = %d, want %d", rs.Tiered.BudgetBytes, cfg.Storage.BudgetBytes)
	}

	// /metrics exposes the same counters as ssam_tier_* series.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		`ssam_tier_reads_total{region="big"}`,
		`ssam_tier_bytes_read_total{region="big"}`,
		`ssam_tier_cache_hits_total{region="big"}`,
		`ssam_tier_cache_misses_total{region="big"}`,
		`ssam_tier_evictions_total{region="big"}`,
		`ssam_tier_prefetch_hits_total{region="big"}`,
		`ssam_tier_stalls_total{region="big"}`,
		`ssam_tier_resident_bytes{region="big"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	if err := c.Free(ctx, "big"); err != nil {
		t.Fatal(err)
	}
}

// TestTieredRegionIsOutOfCore: once a storage-backed region is built,
// its rows live in the backing file alone — the server keeps no staged
// copy beside the page cache, so the live heap grows by at most the
// budget plus a tenth of the dataset — and its answers stay bit-exact.
// With no rows left in RAM to restage from, an append is refused with
// 409; a full reload and a build serve the new dataset.
func TestTieredRegionIsOutOfCore(t *testing.T) {
	const (
		n, dim, k = 8192, 64, 5
		budget    = 0.5 // of the dataset: two of the four vault pages
	)
	rows, queries := testData(n, 8, dim)
	ctx := context.Background()
	oracle := func(rows [][]float32) *ssam.Region {
		r, err := ssam.New(dim, ssam.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Free)
		if err := r.LoadFloat32(flatten(rows)); err != nil {
			t.Fatal(err)
		}
		if err := r.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	exact := func(c *client.Client, ref *ssam.Region) {
		t.Helper()
		for i, q := range queries {
			served, err := c.Search(ctx, "ooc", q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := ref.Search(q, k)
			if len(served) != len(want) {
				t.Fatalf("query %d: served %d results, want %d", i, len(served), len(want))
			}
			for j := range want {
				if served[j].ID != want[j].ID || served[j].Distance != want[j].Dist {
					t.Fatalf("query %d rank %d: served %+v, want %+v", i, j, served[j], want[j])
				}
			}
		}
	}
	full, half := oracle(rows), oracle(rows[:n/2])

	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL, client.WithTimeout(time.Minute))
	before := liveHeap()
	if _, err := c.CreateRegion(ctx, "ooc", dim, wire.RegionConfig{Vaults: 4, Storage: &wire.StorageConfig{
		Path: filepath.Join(t.TempDir(), "ooc.tier"), BudgetBytes: int64(budget * n * dim * 4),
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "ooc", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "ooc"); err != nil {
		t.Fatal(err)
	}
	exact(c, full)
	if grew := float64(liveHeap()-before) / (n * dim * 4); grew > 0.10+budget {
		t.Errorf("a storage-backed region at a %.2f budget holds %.3f x its dataset in RAM, want <= %.2f", budget, grew, 0.10+budget)
	}

	var se *client.StatusError
	if _, err := c.LoadAppend(ctx, "ooc", rows[:1]); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("append to a built storage-backed region = %v, want 409", err)
	}
	exact(c, full) // the refused append changed nothing

	if _, err := c.Load(ctx, "ooc", rows[:n/2]); err != nil {
		t.Fatalf("full reload: %v", err)
	}
	if _, err := c.Build(ctx, "ooc"); err != nil {
		t.Fatalf("build after the reload: %v", err)
	}
	exact(c, half)
}

// TestTieredRegionRaggedPagesOverHTTP: vaults is on the wire, and 100
// rows at 32 vaults are 25 pages of 4 with 7 the store must not be
// asked for. That create + load + build + search used to kill the
// server process; it must answer 200 with the in-RAM region's
// neighbors, one query and a batch, exact and quantized.
func TestTieredRegionRaggedPagesOverHTTP(t *testing.T) {
	const n, dim, k = 100, 8, 3
	rows, queries := testData(n, 4, dim)

	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(time.Minute))

	for name, mode := range map[string]ssam.Mode{"linear": ssam.Linear, "quantized": ssam.Quantized} {
		cfg := wire.RegionConfig{
			Mode:   name,
			Vaults: 32,
			Index:  wire.IndexParams{M: 4, Rerank: 8, Seed: 3},
			Storage: &wire.StorageConfig{
				Path: filepath.Join(t.TempDir(), name+".tier"), BudgetBytes: 256, Prefetch: true,
			},
		}
		if _, err := c.CreateRegion(ctx, name, dim, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Load(ctx, name, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Build(ctx, name); err != nil {
			t.Fatal(err)
		}
		direct, err := ssam.New(dim, ssam.Config{Mode: mode, Vaults: 32, Index: ssam.IndexParams{M: 4, Rerank: 8, Seed: 3}})
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
		batch, err := c.SearchBatch(ctx, name, queries, k)
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		for i, q := range queries {
			served, err := c.Search(ctx, name, q, k)
			if err != nil {
				t.Fatalf("%s: query %d: %v", name, i, err)
			}
			want, err := direct.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(served) != len(want) || len(batch[i]) != len(want) {
				t.Fatalf("%s: query %d: served %d and %d results, want %d", name, i, len(served), len(batch[i]), len(want))
			}
			for j := range want {
				if served[j].ID != want[j].ID || served[j].Distance != want[j].Dist || batch[i][j] != served[j] {
					t.Fatalf("%s: query %d rank %d: served %+v, in a batch %+v, want %+v", name, i, j, served[j], batch[i][j], want[j])
				}
			}
		}
	}
}

// TestTieredRegionWireRejections pins server-side rejection of
// storage configs the wire layer lets through but the region cannot
// serve (mode restrictions surface at create).
func TestTieredRegionWireRejections(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(time.Minute))

	_, err := c.CreateRegion(ctx, "bad", 8, wire.RegionConfig{
		Mode:    "graph",
		Storage: &wire.StorageConfig{Path: filepath.Join(t.TempDir(), "x.tier")},
	})
	if err == nil || !strings.Contains(err.Error(), "Linear and Quantized") {
		t.Fatalf("graph+storage create = %v, want mode rejection", err)
	}

	// A storage-backed region refuses writes with a clear error.
	if _, err := c.CreateRegion(ctx, "ro", 8, wire.RegionConfig{
		Storage: &wire.StorageConfig{Path: filepath.Join(t.TempDir(), "ro.tier")},
	}); err != nil {
		t.Fatal(err)
	}
	rows, _ := testData(64, 1, 8)
	if _, err := c.Load(ctx, "ro", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "ro"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upsert(ctx, "ro", []int{0}, rows[:1]); err == nil {
		t.Fatal("upsert on a storage-backed region succeeded")
	}
}

// TestTieredQuantizedCountersEndToEnd pins the quantized work counters
// of a storage-backed Quantized region: its engine is the tiered PQ
// scan, and the /statsz quantized block and the ssam_pq_* series must
// count its searches like they do for the in-RAM engine (they read 0
// forever when the counters were taken from the in-RAM engine only).
func TestTieredQuantizedCountersEndToEnd(t *testing.T) {
	const n, dim, k, nq = 600, 16, 5, 8
	rows, queries := testData(n, nq, dim)

	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(time.Minute))

	cfg := wire.RegionConfig{
		Mode:    "quantized",
		Vaults:  4,
		Index:   wire.IndexParams{M: 4, Sample: 512, Rerank: 32, Seed: 9},
		Storage: &wire.StorageConfig{Path: filepath.Join(t.TempDir(), "pq.tier"), BudgetBytes: n * dim * 4 / 4},
	}
	if _, err := c.CreateRegion(ctx, "bigpq", dim, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "bigpq", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "bigpq"); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := c.Search(ctx, "bigpq", q, k); err != nil {
			t.Fatal(err)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	qst := st.Regions["bigpq"].Quantized
	if qst == nil {
		t.Fatal("statsz quantized block missing for a storage-backed quantized region")
	}
	if qst.TableBuilds != nq || qst.CodeEvals != nq*n || qst.RerankEvals != nq*32 || qst.Rescans != 0 {
		t.Errorf("quantized block = %+v, want %d table builds, %d code evals, %d rerank evals, no rescan",
			qst, nq, nq*n, nq*32)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]string{
		`ssam_pq_table_builds_total{region="bigpq"}`: "8",
		`ssam_pq_code_evals_total{region="bigpq"}`:   "4800",
		`ssam_pq_rerank_evals_total{region="bigpq"}`: "256",
		`ssam_pq_rescans_total{region="bigpq"}`:      "0",
	} {
		if line := series + " " + want + "\n"; !strings.Contains(string(body), line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
}
