package ssam

import (
	"strings"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/obs"
)

func quantizedDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "region-pq", N: 1500, Dim: 24, NumQueries: 48, K: 10,
		Clusters: 16, ClusterStd: 0.3, Seed: 11,
	})
}

func buildQuantizedRegion(t *testing.T, ds *dataset.Dataset, cfg Config) *Region {
	t.Helper()
	cfg.Mode = Quantized
	r, err := New(ds.Dim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestQuantizedDeviceMatchesHost pins the one-build-serves-both
// contract: the codebook is trained on the host and attached to the
// device, so a Device quantized region returns bit-identical neighbors
// to a Host region with the same seed — only the modeled stats differ.
// The stats must also tell the §IV bandwidth story: the scan streams
// 8-bit codes, so vault traffic lands well under the float32 scan's
// n·dim·4 bytes.
func TestQuantizedDeviceMatchesHost(t *testing.T) {
	ds := quantizedDataset(t)
	ip := IndexParams{Seed: 5, M: 4, Sample: 1024, Rerank: 64}
	host := buildQuantizedRegion(t, ds, Config{Index: ip})
	defer host.Free()
	dev := buildQuantizedRegion(t, ds, Config{Execution: Device, VectorLength: 4, Index: ip})
	defer dev.Free()

	floatScanBytes := uint64(ds.N() * ds.Dim() * 4)
	for i := 0; i < 16; i++ {
		hres, err := host.Search(ds.Queries[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		dres, dst, err := dev.SearchStats(ds.Queries[i], 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(hres) != len(dres) {
			t.Fatalf("query %d: host %d results, device %d", i, len(hres), len(dres))
		}
		for j := range hres {
			if hres[j] != dres[j] {
				t.Fatalf("query %d rank %d: host %+v != device %+v", i, j, hres[j], dres[j])
			}
		}
		if dst.Cycles == 0 || dst.Seconds <= 0 || dst.DRAMBytesRead == 0 ||
			dst.VectorInstructions == 0 || dst.ProcessingUnits == 0 {
			t.Fatalf("query %d: implausible device stats %+v", i, dst)
		}
		if dst.DRAMBytesRead >= floatScanBytes {
			t.Fatalf("query %d: DRAM traffic %d not below the float scan's %d bytes",
				i, dst.DRAMBytesRead, floatScanBytes)
		}
		if dst.Throughput() <= 0 {
			t.Fatalf("query %d: throughput %v", i, dst.Throughput())
		}
	}
	if st := dev.LastStats(); st.Cycles == 0 {
		t.Fatal("LastStats empty after device quantized search")
	}
}

// TestQuantizedSetChecks verifies the accuracy knob: SetChecks
// retargets the re-rank depth of a built quantized region, recall can
// only improve with depth, and a depth covering the whole dataset
// reproduces the exact linear answers bit for bit.
func TestQuantizedSetChecks(t *testing.T) {
	ds := quantizedDataset(t)
	r := buildQuantizedRegion(t, ds, Config{Index: IndexParams{Seed: 2}})
	defer r.Free()
	lin, err := New(ds.Dim(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lin.Free()
	if err := lin.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := lin.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	recallAt := func(rerank int) float64 {
		if err := r.SetChecks(rerank); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, q := range ds.Queries {
			exact, err := lin.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := r.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sum += dataset.Recall(exact, approx)
		}
		return sum / float64(len(ds.Queries))
	}
	shallow := recallAt(10)
	deep := recallAt(200)
	if deep < shallow {
		t.Fatalf("recall fell as rerank grew: rerank=10 %.3f, rerank=200 %.3f", shallow, deep)
	}
	if deep < 0.95 {
		t.Fatalf("recall %.3f at rerank=200 on a 1.5k set, want >= 0.95", deep)
	}

	// Full-depth re-rank equals the exact engine, neighbor for neighbor.
	if err := r.SetChecks(ds.N()); err != nil {
		t.Fatal(err)
	}
	for i, q := range ds.Queries {
		exact, err := lin.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for j := range exact {
			if got[j] != exact[j] {
				t.Fatalf("query %d rank %d: full-depth %+v != exact %+v", i, j, got[j], exact[j])
			}
		}
	}
}

// TestQuantizedSearchSpans checks the scan trace: the exec span
// carries mode/m/rerank tags and the ADC work counters, and the exact
// re-rank is a child span of its own.
func TestQuantizedSearchSpans(t *testing.T) {
	ds := quantizedDataset(t)
	r := buildQuantizedRegion(t, ds, Config{Vaults: 4, Index: IndexParams{Seed: 4, Rerank: 32}})
	defer r.Free()
	tracer := obs.NewTracer(0, 8)
	tr := tracer.Trace("search", true)
	if _, _, err := r.SearchStatsSpan(ds.Queries[0], 10, tr.Root()); err != nil {
		t.Fatal(err)
	}
	data := tracer.Finish(tr)
	exec := data.Root.Find("exec")
	if exec == nil {
		t.Fatal("no exec span")
	}
	if exec.Tags["mode"] != "quantized" || exec.Tags["execution"] != "host" {
		t.Fatalf("exec tags: %+v", exec.Tags)
	}
	if exec.Tags["rerank"] != 32 {
		t.Fatalf("rerank tag = %v, want 32", exec.Tags["rerank"])
	}
	if ce, ok := exec.Tags["code_evals"].(int); !ok || ce != ds.N() {
		t.Fatalf("code_evals tag = %v, want %d", exec.Tags["code_evals"], ds.N())
	}
	if re, ok := exec.Tags["rerank_evals"].(int); !ok || re != 32 {
		t.Fatalf("rerank_evals tag = %v, want 32", exec.Tags["rerank_evals"])
	}
	// The ADC pass's useful-to-attempted ratio is adc_kept over
	// code_evals: at least the 32 candidates, far from all the rows.
	if kept, ok := exec.Tags["adc_kept"].(int); !ok || kept < 32 || kept >= ds.N() {
		t.Fatalf("adc_kept tag = %v, want in [32, %d)", exec.Tags["adc_kept"], ds.N())
	}
	rerank := exec.Find("rerank")
	if rerank == nil {
		t.Fatal("no rerank span under exec")
	}
	if rerank.Tags["cands"] != 32 {
		t.Fatalf("rerank cands tag = %v, want 32", rerank.Tags["cands"])
	}
}

// TestQuantizedStatsAccessor covers the cumulative counter surface the
// server's /metrics series scrape.
func TestQuantizedStatsAccessor(t *testing.T) {
	ds := quantizedDataset(t)
	r := buildQuantizedRegion(t, ds, Config{Index: IndexParams{Seed: 1, Rerank: 16}})
	defer r.Free()
	for i := 0; i < 3; i++ {
		if _, err := r.Search(ds.Queries[i], 5); err != nil {
			t.Fatal(err)
		}
	}
	qc, ok := r.QuantizedStats()
	if !ok {
		t.Fatal("QuantizedStats not ok on a built quantized region")
	}
	if qc.TableBuilds != 3 || qc.CodeEvals != uint64(3*ds.N()) || qc.RerankEvals != 48 {
		t.Fatalf("counters after 3 queries: %+v", qc)
	}

	lin, err := New(ds.Dim(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lin.Free()
	if _, ok := lin.QuantizedStats(); ok {
		t.Fatal("QuantizedStats ok on a linear region")
	}
}

// TestQuantizedConfigValidation covers the quantized-specific paths
// through New and the staged query interface, including the non-
// Euclidean metrics the mode shares with Linear.
func TestQuantizedConfigValidation(t *testing.T) {
	if _, err := New(8, Config{Mode: Quantized, Metric: Hamming}); err == nil {
		t.Fatal("Hamming quantized config accepted")
	}
	if _, err := New(8, Config{Mode: Quantized, Index: IndexParams{Rerank: -1}}); err == nil ||
		!strings.Contains(err.Error(), "rerank") {
		t.Fatal("negative rerank accepted")
	}
	for _, m := range []Metric{Manhattan, Cosine} {
		if _, err := New(8, Config{Mode: Quantized, Metric: m}); err != nil {
			t.Fatalf("%v quantized config rejected: %v", m, err)
		}
	}

	// M wider than the dimensionality only surfaces at build, where the
	// codebook is trained.
	ds := quantizedDataset(t)
	r, err := New(ds.Dim(), Config{Mode: Quantized, Index: IndexParams{M: ds.Dim() + 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err == nil {
		t.Fatal("M > dims accepted at build")
	}

	rq := buildQuantizedRegion(t, ds, Config{Index: IndexParams{Seed: 7}})
	defer rq.Free()
	if err := rq.WriteQuery(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := rq.Exec(5); err != nil {
		t.Fatal(err)
	}
	res, err := rq.ReadResult()
	if err != nil || len(res) != 5 {
		t.Fatalf("staged quantized query: %v, %d results", err, len(res))
	}
	batch, err := rq.SearchBatch(ds.Queries[:8], 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range batch {
		if len(row) != 3 {
			t.Fatalf("batch row %d: %d results", i, len(row))
		}
	}
}
