package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// TestQuantizedRegionEndToEnd drives a quantized-mode region through
// the full client → server → region path: the PQ knobs must survive
// the wire, and because codebook training is deterministic in the
// seed, the served answers must equal a direct in-process Region built
// with the same IndexParams, neighbor for neighbor. The region's ADC
// work counters must then show up in both /statsz and /metrics.
func TestQuantizedRegionEndToEnd(t *testing.T) {
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
		Mode: "quantized",
		Index: wire.IndexParams{
			M: 4, Sample: 512, Rerank: 64, Seed: 9,
		},
	}
	if _, err := c.CreateRegion(ctx, "pq", dim, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "pq", rows); err != nil {
		t.Fatal(err)
	}
	info, err := c.Build(ctx, "pq")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Built || info.Config.Mode != "quantized" {
		t.Fatalf("post-build info: %+v", info)
	}
	if got := info.Config.Index; got != cfg.Index {
		t.Fatalf("index params did not survive the wire: %+v", got)
	}

	direct, err := ssam.New(dim, ssam.Config{
		Mode:  ssam.Quantized,
		Index: ssam.IndexParams(cfg.Index),
	})
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
		served, err := c.Search(ctx, "pq", q, k)
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
	batch, err := c.SearchBatch(ctx, "pq", queries[:8], k)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range batch {
		if len(row) != k {
			t.Fatalf("batch row %d: %d results", i, len(row))
		}
	}

	// /statsz carries the quantized work-counter block: one table per
	// query served, n code evals per query, Rerank re-scores per query,
	// and no rescan (the pilot's bound kept enough rows every time: a
	// rescan would add n code evals of its own).
	const queriesServed = nq + 8
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := st.Regions["pq"]
	if !ok {
		t.Fatalf("region missing from /statsz: %+v", st.Regions)
	}
	if rs.Quantized == nil {
		t.Fatal("statsz quantized block missing for a built quantized region")
	}
	if rs.Quantized.TableBuilds != queriesServed {
		t.Errorf("TableBuilds = %d, want %d", rs.Quantized.TableBuilds, queriesServed)
	}
	if rs.Quantized.CodeEvals != queriesServed*n {
		t.Errorf("CodeEvals = %d, want %d", rs.Quantized.CodeEvals, queriesServed*n)
	}
	if want := uint64(queriesServed * cfg.Index.Rerank); rs.Quantized.RerankEvals != want {
		t.Errorf("RerankEvals = %d, want %d", rs.Quantized.RerankEvals, want)
	}
	if rs.Quantized.Rescans != 0 {
		t.Errorf("Rescans = %d, want 0", rs.Quantized.Rescans)
	}

	// /metrics exposes the same counters as ssam_pq_* series, at the
	// same values.
	text := scrapeMetrics(t, ts.URL)
	for series, want := range map[string]uint64{
		`ssam_pq_table_builds_total{region="pq"}`: rs.Quantized.TableBuilds,
		`ssam_pq_code_evals_total{region="pq"}`:   rs.Quantized.CodeEvals,
		`ssam_pq_rerank_evals_total{region="pq"}`: rs.Quantized.RerankEvals,
		`ssam_pq_rescans_total{region="pq"}`:      rs.Quantized.Rescans,
	} {
		if line := fmt.Sprintf("%s %d\n", series, want); !strings.Contains(text, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}

	if err := c.Free(ctx, "pq"); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizedCountersSurviveRebuild: the ssam_pq_* series and the
// /statsz block they mirror are region-lifetime counters, like every
// ssam_region_*_total, so a rebuild, which trains a new codebook, leaves
// them counting up (a Prometheus counter that drops reads as a reset).
// The seed is fixed, so the second round's work equals the first's.
func TestQuantizedCountersSurviveRebuild(t *testing.T) {
	const n, dim, k, nq = 600, 16, 5, 16
	rows, queries := testData(n, nq, dim)
	for _, execution := range []string{"host", "device"} {
		t.Run(execution, func(t *testing.T) {
			srv := server.New(server.Options{})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			ctx := context.Background()
			c := client.New(ts.URL, client.WithTimeout(time.Minute))
			cfg := wire.RegionConfig{Mode: "quantized", Execution: execution,
				Index: wire.IndexParams{M: 4, Sample: 512, Rerank: 64, Seed: 9}}
			if _, err := c.CreateRegion(ctx, "pq", dim, cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Load(ctx, "pq", rows); err != nil {
				t.Fatal(err)
			}
			var first wire.QuantizedStats
			for round := uint64(1); round <= 2; round++ {
				if _, err := c.Build(ctx, "pq"); err != nil {
					t.Fatal(err)
				}
				for _, q := range queries {
					if _, err := c.Search(ctx, "pq", q, k); err != nil {
						t.Fatal(err)
					}
				}
				st, err := c.Stats(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got := st.Regions["pq"].Quantized
				if got == nil {
					t.Fatalf("round %d: statsz quantized block missing", round)
				}
				if round == 1 {
					first = *got
				}
				want := wire.QuantizedStats{TableBuilds: round * first.TableBuilds, CodeEvals: round * first.CodeEvals,
					RerankEvals: round * first.RerankEvals, Rescans: round * first.Rescans}
				if first.TableBuilds != nq || *got != want {
					t.Fatalf("round %d: quantized block %+v, want %+v (%d table builds a round)", round, *got, want, nq)
				}
				text := scrapeMetrics(t, ts.URL)
				for series, v := range map[string]uint64{
					`ssam_pq_table_builds_total{region="pq"}`: want.TableBuilds,
					`ssam_pq_code_evals_total{region="pq"}`:   want.CodeEvals,
					`ssam_pq_rerank_evals_total{region="pq"}`: want.RerankEvals,
					`ssam_pq_rescans_total{region="pq"}`:      want.Rescans,
				} {
					if line := fmt.Sprintf("%s %d\n", series, v); !strings.Contains(text, line) {
						t.Errorf("round %d: /metrics missing %q", round, line)
					}
				}
			}
		})
	}
}

// scrapeMetrics returns the server's /metrics text.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestQuantizedRejections pins the wire-level validation for quantized
// regions: a negative re-rank depth and an out-of-range subquantizer
// count must be rejected at create/build with a 4xx, not a panic.
func TestQuantizedRejections(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL, client.WithTimeout(time.Minute))

	// Negative rerank is rejected at create.
	_, err := c.CreateRegion(ctx, "bad", 8, wire.RegionConfig{
		Mode:  "quantized",
		Index: wire.IndexParams{Rerank: -1},
	})
	if err == nil {
		t.Fatal("negative rerank accepted at create")
	}

	// M larger than the dimensionality fails at build (the codebook has
	// no subspace to give the extra subquantizers).
	rows, _ := testData(50, 1, 8)
	if _, err := c.CreateRegion(ctx, "wide", 8, wire.RegionConfig{
		Mode:  "quantized",
		Index: wire.IndexParams{M: 9},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx, "wide", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Build(ctx, "wide"); err == nil {
		t.Fatal("M > dims accepted at build")
	}
}
