package ssam

import (
	"strings"
	"sync"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/obs"
)

func graphDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "region-graph", N: 1500, Dim: 24, NumQueries: 48, K: 10,
		Clusters: 16, ClusterStd: 0.3, Seed: 11,
	})
}

func buildGraphRegion(t *testing.T, ds *dataset.Dataset, cfg Config) *Region {
	t.Helper()
	cfg.Mode = Graph
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

// TestGraphSerialVsConcurrent pins the acceptance criterion: serial
// and concurrent searches of the same built graph region return
// identical results.
func TestGraphSerialVsConcurrent(t *testing.T) {
	ds := graphDataset(t)
	r := buildGraphRegion(t, ds, Config{Index: IndexParams{Seed: 3}})
	defer r.Free()

	serial := make([][]Result, len(ds.Queries))
	for i, q := range ds.Queries {
		res, err := r.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	conc := make([][]Result, len(ds.Queries))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ds.Queries); i += 8 {
				res, err := r.Search(ds.Queries[i], 10)
				if err != nil {
					t.Error(err)
					return
				}
				conc[i] = res
			}
		}(w)
	}
	wg.Wait()
	for i := range serial {
		if len(serial[i]) != len(conc[i]) {
			t.Fatalf("query %d: %d serial vs %d concurrent results", i, len(serial[i]), len(conc[i]))
		}
		for j := range serial[i] {
			if serial[i][j] != conc[i][j] {
				t.Fatalf("query %d rank %d: serial %+v != concurrent %+v",
					i, j, serial[i][j], conc[i][j])
			}
		}
	}
}

// TestGraphDeviceMatchesHost pins the one-build-serves-both contract:
// a Device graph region returns the same neighbors as a Host region
// with the same seed, plus modeled (nonzero) device stats.
func TestGraphDeviceMatchesHost(t *testing.T) {
	ds := graphDataset(t)
	ip := IndexParams{Seed: 5, M: 12, EfConstruction: 48, EfSearch: 40}
	host := buildGraphRegion(t, ds, Config{Index: ip})
	defer host.Free()
	dev := buildGraphRegion(t, ds, Config{Execution: Device, VectorLength: 4, Index: ip})
	defer dev.Free()

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
		if dst.Throughput() <= 0 {
			t.Fatalf("query %d: throughput %v", i, dst.Throughput())
		}
	}
}

// TestGraphSetChecks verifies the EfSearch knob: SetChecks retunes a
// built graph region, and a wider beam can only improve recall.
func TestGraphSetChecks(t *testing.T) {
	ds := graphDataset(t)
	r := buildGraphRegion(t, ds, Config{Index: IndexParams{Seed: 2}})
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

	recallAt := func(ef int) float64 {
		if err := r.SetChecks(ef); err != nil {
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
	narrow := recallAt(10)
	wide := recallAt(400)
	if wide < narrow {
		t.Fatalf("recall fell as ef grew: ef=10 %.3f, ef=400 %.3f", narrow, wide)
	}
	if wide < 0.95 {
		t.Fatalf("recall %.3f at ef=400 on a 1.5k set, want >= 0.95", wide)
	}
}

// TestGraphSearchSpans checks the traversal trace: the exec span
// carries mode/ef/dist_evals tags and descend/base children from the
// graph engine.
func TestGraphSearchSpans(t *testing.T) {
	ds := graphDataset(t)
	r := buildGraphRegion(t, ds, Config{Index: IndexParams{Seed: 4}})
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
	if exec.Tags["mode"] != "graph" || exec.Tags["execution"] != "host" {
		t.Fatalf("exec tags: %+v", exec.Tags)
	}
	if exec.Tags["ef"] != 64 {
		t.Fatalf("ef tag = %v, want default 64", exec.Tags["ef"])
	}
	de, ok := exec.Tags["dist_evals"].(int)
	if !ok || de <= 0 {
		t.Fatalf("dist_evals tag = %v", exec.Tags["dist_evals"])
	}
	if exec.Tags["dims"] != de*ds.Dim() {
		t.Fatalf("dims tag = %v, want %d", exec.Tags["dims"], de*ds.Dim())
	}
	if exec.Find("descend") == nil || exec.Find("base") == nil {
		t.Fatalf("missing traversal child spans: %+v", exec)
	}
}

// TestGraphConfigValidation covers the graph-specific paths through
// New and the staged query interface.
func TestGraphConfigValidation(t *testing.T) {
	if _, err := New(8, Config{Mode: Graph, Metric: Cosine}); err == nil ||
		!strings.Contains(err.Error(), "Euclidean") {
		t.Fatalf("non-Euclidean graph config: %v", err)
	}
	if _, err := New(8, Config{Mode: Graph, Metric: Hamming}); err == nil {
		t.Fatal("Hamming graph config accepted")
	}

	ds := graphDataset(t)
	r := buildGraphRegion(t, ds, Config{})
	defer r.Free()
	if err := r.WriteQuery(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Exec(5); err != nil {
		t.Fatal(err)
	}
	res, err := r.ReadResult()
	if err != nil || len(res) != 5 {
		t.Fatalf("staged graph query: %v, %d results", err, len(res))
	}
	batch, err := r.SearchBatch(ds.Queries[:8], 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range batch {
		if len(row) != 3 {
			t.Fatalf("batch row %d: %d results", i, len(row))
		}
	}
}
