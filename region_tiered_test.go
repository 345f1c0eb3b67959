package ssam

// Region-level contract for storage-backed (out-of-core) regions: they
// must answer bit-identically to the in-RAM region on the same dataset
// at every budget fraction, batch size and ragged page shape, storage
// faults must surface as errors rather than wrong neighbors, the write
// path must refuse storage-backed regions, and the Device storage model
// must follow the pinned ann_in_ssd formula.

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/obs"
	"ssam/internal/tier"
)

// regionStore is the fault-injection seam: the store behind a built
// storage-backed region, which its engine owns.
func regionStore(t *testing.T, r *Region) *tier.Store {
	t.Helper()
	e, ok := r.engine().(interface{ store() *tier.Store })
	if !ok || e.store() == nil {
		t.Fatalf("region engine %T has no store", r.engine())
	}
	return e.store()
}

func tieredTestDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "region-tiered", N: 1200, Dim: 24, NumQueries: 24, K: 10,
		Clusters: 12, ClusterStd: 0.3, Seed: 17,
	})
}

func buildTieredRegion(t *testing.T, ds *dataset.Dataset, cfg Config) *Region {
	t.Helper()
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
	t.Cleanup(r.Free)
	return r
}

func TestTieredRegionMatchesInRAM(t *testing.T) {
	ds := tieredTestDataset(t)
	datasetBytes := int64(ds.N() * ds.Dim() * 4)
	for _, mode := range []Mode{Linear, Quantized} {
		for _, metric := range []Metric{Euclidean, Manhattan, Cosine} {
			ip := IndexParams{Seed: 5, M: 4, Sample: 1024, Rerank: 64}
			ram := buildTieredRegion(t, ds, Config{Mode: mode, Metric: metric, Vaults: 4, Index: ip})
			for _, frac := range []float64{0.1, 0.5, 1.0, 0} {
				cfg := Config{Mode: mode, Metric: metric, Vaults: 4, Index: ip, Storage: &Storage{
					Path:        filepath.Join(t.TempDir(), "region.tier"),
					BudgetBytes: int64(frac * float64(datasetBytes)),
					Prefetch:    true,
				}}
				tr := buildTieredRegion(t, ds, cfg)
				if n := tr.Len(); n != ds.N() {
					t.Fatalf("tiered region Len = %d, want %d", n, ds.N())
				}
				for qi := 0; qi < 8; qi++ {
					want, err := ram.Search(ds.Queries[qi], 10)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tr.Search(ds.Queries[qi], 10)
					if err != nil {
						t.Fatalf("mode=%v metric=%v frac=%v q=%d: %v", mode, metric, frac, qi, err)
					}
					if len(got) != len(want) {
						t.Fatalf("mode=%v metric=%v frac=%v q=%d: %d results, want %d",
							mode, metric, frac, qi, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("mode=%v metric=%v frac=%v q=%d: result %d = %+v, want %+v",
								mode, metric, frac, qi, i, got[i], want[i])
						}
					}
				}
				if c, ok := tr.TieredStats(); !ok {
					t.Fatal("TieredStats reported no storage tier")
				} else if mode == Linear && c.Reads == 0 {
					t.Fatal("tiered linear region never read the backing file")
				}
				// The staged Fig. 4 sequence must route through the same
				// engines.
				if err := tr.WriteQuery(ds.Queries[0]); err != nil {
					t.Fatal(err)
				}
				if err := tr.Exec(10); err != nil {
					t.Fatal(err)
				}
				res, err := tr.ReadResult()
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ram.Search(ds.Queries[0], 10)
				for i := range want {
					if res[i] != want[i] {
						t.Fatalf("Exec path diverged at %d: %+v != %+v", i, res[i], want[i])
					}
				}
			}
		}
	}
}

// TestTieredRegionBatchMatchesInRAM: a storage-backed SearchBatch is
// the in-RAM SearchBatch and the storage-backed Search of each of its
// queries, at every batch size around the query tile's widths; and the
// Linear one is a single walk, pinning each page once for the batch.
func TestTieredRegionBatchMatchesInRAM(t *testing.T) {
	ds := tieredTestDataset(t)
	for _, mode := range []Mode{Linear, Quantized} {
		ip := IndexParams{Seed: 5, M: 4, Sample: 1024, Rerank: 64}
		ram := buildTieredRegion(t, ds, Config{Mode: mode, Vaults: 4, Index: ip})
		tr := buildTieredRegion(t, ds, Config{Mode: mode, Vaults: 4, Index: ip, Storage: &Storage{
			Path:        filepath.Join(t.TempDir(), "region.tier"),
			BudgetBytes: int64(ds.N() * ds.Dim() * 4 / 10),
			Prefetch:    true,
		}})
		for _, b := range []int{1, 3, 16, 17, len(ds.Queries)} {
			want, err := ram.SearchBatch(ds.Queries[:b], 10)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := tr.TieredStats()
			got, err := tr.SearchBatch(ds.Queries[:b], 10)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := tr.TieredStats()
			if pins := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses; mode == Linear && pins != 4 {
				t.Fatalf("batch of %d pinned %d pages, want each of the 4 once", b, pins)
			}
			for qi := range want {
				single, err := tr.Search(ds.Queries[qi], 10)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got[qi], want[qi]) || !slices.Equal(got[qi], single) {
					t.Fatalf("mode=%v B=%d q=%d: batch %+v, in-RAM batch %+v, single %+v",
						mode, b, qi, got[qi], want[qi], single)
				}
			}
		}
	}
}

// TestTieredRegionRaggedPages: row counts the vault count does not
// divide leave the last configured pages without rows (100 rows at 32
// vaults are 25 pages of 4). A walk that visited all 32 asked the store
// for a page of negative length and took the process down; every shape
// must build and answer exactly like its in-RAM twin, one query and a
// batch, exact and quantized.
func TestTieredRegionRaggedPages(t *testing.T) {
	for _, c := range []struct{ n, vaults int }{{33, 32}, {100, 32}, {10, 8}, {9, 4}, {5, 4}, {1, 1}} {
		ds := dataset.Generate(dataset.Spec{
			Name: "ragged", N: c.n, Dim: 8, NumQueries: 5, K: 3, Clusters: 1, ClusterStd: 0.5, Seed: int64(c.n),
		})
		for _, mode := range []Mode{Linear, Quantized} {
			label := fmt.Sprintf("n=%d vaults=%d mode=%v", c.n, c.vaults, mode)
			ip := IndexParams{Seed: 5, M: 4, Rerank: 4}
			ram := buildTieredRegion(t, ds, Config{Mode: mode, Vaults: c.vaults, Index: ip})
			tr := buildTieredRegion(t, ds, Config{Mode: mode, Vaults: c.vaults, Index: ip, Storage: &Storage{
				Path: filepath.Join(t.TempDir(), "ragged.tier"), BudgetBytes: 64, Prefetch: true,
			}})
			wantBatch, err := ram.SearchBatch(ds.Queries, 3)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			gotBatch, err := tr.SearchBatch(ds.Queries, 3)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for qi, q := range ds.Queries {
				want, err := ram.Search(q, 3)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				got, err := tr.Search(q, 3)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(got, want) || !slices.Equal(gotBatch[qi], wantBatch[qi]) || !slices.Equal(gotBatch[qi], want) {
					t.Fatalf("%s q=%d: search %+v, batch %+v, in-RAM %+v", label, qi, got, gotBatch[qi], want)
				}
			}
		}
	}
}

// TestTieredRegionsShareAPath: two storage-backed regions built over
// different rows on one Storage.Path, a budget below a page so every
// query reads the file, each answer exactly as a brute-force scan of
// their own rows — built first or second, Linear or Quantized (re-ranking
// every row, so exact too). The file used to be rewritten in place, and
// the region built first then served the second one's rows, without an
// error.
func TestTieredRegionsShareAPath(t *testing.T) {
	const n, dim, k = 256, 8, 3
	for _, modes := range [][2]Mode{{Linear, Quantized}, {Quantized, Linear}} {
		path := filepath.Join(t.TempDir(), "shared.tier")
		var regions, oracles [2]*Region
		var sets [2]*dataset.Dataset
		for i, mode := range modes {
			sets[i] = dataset.Generate(dataset.Spec{
				Name: "shared", N: n, Dim: dim, NumQueries: 4, K: k, Clusters: 4, ClusterStd: 0.5, Seed: int64(31 + i),
			})
			oracles[i] = buildTieredRegion(t, sets[i], Config{})
			regions[i] = buildTieredRegion(t, sets[i], Config{Mode: mode, Vaults: 4, Index: IndexParams{Seed: 5, M: 4, Rerank: n},
				Storage: &Storage{Path: path, BudgetBytes: 1}})
		}
		for i, r := range regions {
			for _, q := range append([][]float32{sets[i].Row(5)}, sets[i].Queries...) {
				want, err := oracles[i].Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := r.Search(q, k); err != nil || !slices.Equal(got, want) {
					t.Fatalf("%v built %s on the shared path: (%+v, %v), want %+v",
						modes[i], []string{"first", "second"}[i], got, err, want)
				}
			}
		}
	}
}

// TestTieredRegionBatchTrace: a storage-backed batch is one shared scan
// that reports its work, so a forced trace shows it like an in-RAM one —
// dist_evals and dims on exec, one "vault" child per page tagged with
// its rows, the batch's queries and how the page was served: cold on
// the first batch, cached on the second.
func TestTieredRegionBatchTrace(t *testing.T) {
	ds := tieredTestDataset(t)
	const vaults, b = 4, 4
	tr := buildTieredRegion(t, ds, Config{Vaults: vaults, Storage: &Storage{
		Path: filepath.Join(t.TempDir(), "region.tier"),
	}})
	tracer := obs.NewTracer(0, 4)
	for _, warm := range []bool{false, true} {
		trace := tracer.Trace("searchbatch", true)
		if _, _, err := tr.SearchBatchSpan(ds.Queries[:b], 10, trace.Root()); err != nil {
			t.Fatal(err)
		}
		exec := tracer.Finish(trace).Root.Find("exec")
		if exec == nil {
			t.Fatal("no exec span recorded")
		}
		if exec.Tags["mode"] != "tiered" || exec.Tags["batch"] != b {
			t.Fatalf("exec tags = %v, want mode=tiered batch=%d", exec.Tags, b)
		}
		if exec.Tags["dist_evals"] != b*ds.N() || exec.Tags["dims"] != b*ds.N()*ds.Dim() {
			t.Fatalf("exec tags = %v, want dist_evals=%d dims=%d", exec.Tags, b*ds.N(), b*ds.N()*ds.Dim())
		}
		pages := exec.FindAll("vault")
		if len(pages) != vaults {
			t.Fatalf("%d vault spans under exec, want %d", len(pages), vaults)
		}
		for v, pg := range pages {
			if pg.Tags["vault"] != v || pg.Tags["rows"] != ds.N()/vaults || pg.Tags["queries"] != b || pg.Tags["tier_hit"] != warm {
				t.Fatalf("warm=%v page %d tags = %v, want rows=%d queries=%d tier_hit=%v",
					warm, v, pg.Tags, ds.N()/vaults, b, warm)
			}
		}
	}
}

func TestTieredRegionSetChecksRetargetsRerank(t *testing.T) {
	ds := tieredTestDataset(t)
	ip := IndexParams{Seed: 5, M: 4, Sample: 1024, Rerank: 8}
	ram := buildTieredRegion(t, ds, Config{Mode: Quantized, Vaults: 4, Index: ip})
	tr := buildTieredRegion(t, ds, Config{Mode: Quantized, Vaults: 4, Index: ip, Storage: &Storage{
		Path: filepath.Join(t.TempDir(), "region.tier"), BudgetBytes: 4096,
	}})
	if err := ram.SetChecks(ds.N()); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetChecks(ds.N()); err != nil {
		t.Fatal(err)
	}
	want, _ := ram.Search(ds.Queries[0], 10)
	got, err := tr.Search(ds.Queries[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after SetChecks, result %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestTieredRegionQuantizedStats pins the work of a storage-backed
// Quantized region: the tiered PQ engine is the region's engine, so its
// searches return their ADC work (and a tiered Linear region's, which
// do none, return none).
func TestTieredRegionQuantizedStats(t *testing.T) {
	ds := tieredTestDataset(t)
	ip := IndexParams{Seed: 5, M: 4, Sample: 1024, Rerank: 8}
	tr := buildTieredRegion(t, ds, Config{Mode: Quantized, Vaults: 4, Index: ip, Storage: &Storage{
		Path: filepath.Join(t.TempDir(), "region.tier"), BudgetBytes: 4096,
	}})
	var st Work
	for i := range 3 {
		_, w, err := tr.SearchBatchSpan(ds.Queries[i:i+1], 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.add(w)
	}
	if st.TableBuilds != 3 || st.CodeEvals != 3*ds.N() || st.DistEvals != 3*10 {
		t.Fatalf("work of 3 searches = %+v", st)
	}
	lin := buildTieredRegion(t, ds, Config{Vaults: 4, Storage: &Storage{
		Path: filepath.Join(t.TempDir(), "linear.tier"),
	}})
	if _, w, err := lin.SearchBatchSpan(ds.Queries[:1], 10, nil); err != nil || w.TableBuilds != 0 || w.CodeEvals != 0 {
		t.Fatalf("a tiered Linear region's work = %+v, %v; want no ADC work", w, err)
	}
}

func TestTieredRegionConfigValidation(t *testing.T) {
	good := &Storage{Path: "x.tier"}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"graph mode", Config{Mode: Graph, Storage: good}},
		{"kdtree mode", Config{Mode: KDTree, Storage: good}},
		{"hamming", Config{Metric: Hamming, Storage: good}},
		{"negative budget", Config{Storage: &Storage{Path: "x", BudgetBytes: -1}}},
		{"host without path", Config{Storage: &Storage{}}},
	}
	for _, c := range cases {
		if _, err := New(8, c.cfg); err == nil {
			t.Errorf("%s: New accepted invalid storage config", c.name)
		}
	}
	// Device execution prices storage analytically; no path needed.
	if _, err := New(8, Config{Execution: Device, Storage: &Storage{BudgetBytes: 1 << 20}}); err != nil {
		t.Errorf("device without path: %v", err)
	}
}

func TestTieredRegionRejectsWrites(t *testing.T) {
	ds := tieredTestDataset(t)
	tr := buildTieredRegion(t, ds, Config{Storage: &Storage{
		Path: filepath.Join(t.TempDir(), "region.tier"),
	}})
	if _, err := tr.Upsert(0, ds.Queries[0]); !errors.Is(err, ErrImmutableEngine) {
		t.Fatalf("Upsert on storage-backed region = %v, want ErrImmutableEngine", err)
	}
	if _, _, err := tr.Delete(1); !errors.Is(err, ErrImmutableEngine) {
		t.Fatalf("Delete on storage-backed region = %v, want ErrImmutableEngine", err)
	}
}

func TestTieredRegionSurfacesStorageFaults(t *testing.T) {
	ds := tieredTestDataset(t)
	tr := buildTieredRegion(t, ds, Config{Vaults: 4, Storage: &Storage{
		Path:        filepath.Join(t.TempDir(), "region.tier"),
		BudgetBytes: 1, // below one page: every scan re-reads the file
	}})
	boom := errors.New("dead flash")
	store := regionStore(t, tr)
	store.SetReadHook(func(int) error { return boom })
	if _, err := tr.Search(ds.Queries[0], 10); !errors.Is(err, boom) {
		t.Fatalf("Search over faulted storage = %v, want wrapped injected error", err)
	}
	// A single query is a batch of one, but its error is the engine's
	// own, not a *BatchError.
	var re *tier.ReadError
	var be *BatchError
	if _, err := tr.Search(ds.Queries[0], 10); !errors.As(err, &re) || errors.As(err, &be) {
		t.Fatalf("Search over faulted storage = %v, want *tier.ReadError and no *BatchError", err)
	}
	// A fault inside the shared walk fails the whole batch: a *BatchError
	// at query 0 wrapping the typed read error, and no lists.
	re = nil
	if out, err := tr.SearchBatch(ds.Queries[:4], 10); !errors.As(err, &be) || be.Index != 0 || !errors.As(err, &re) || out != nil {
		t.Fatalf("SearchBatch over faulted storage = %v, %v, want no lists and a *BatchError at 0 wrapping *tier.ReadError", out, err)
	}
	store.SetReadHook(nil)
	if _, err := tr.Search(ds.Queries[0], 10); err != nil {
		t.Fatalf("Search after clearing fault: %v", err)
	}
}

func TestTieredRegionReloadRebuild(t *testing.T) {
	ds := tieredTestDataset(t)
	tr := buildTieredRegion(t, ds, Config{Storage: &Storage{
		Path: filepath.Join(t.TempDir(), "region.tier"),
	}})
	// Rebuild without reload: the backing file is the dataset.
	if err := tr.BuildIndex(); err != nil {
		t.Fatalf("rebuild over existing store: %v", err)
	}
	if _, err := tr.Search(ds.Queries[0], 5); err != nil {
		t.Fatal(err)
	}
	// Reload then rebuild: the file is rewritten from the new rows.
	if err := tr.LoadFloat32(ds.Data[:100*ds.Dim()]); err != nil {
		t.Fatal(err)
	}
	if err := tr.BuildIndex(); err != nil {
		t.Fatalf("rebuild after reload: %v", err)
	}
	if n := tr.Len(); n != 100 {
		t.Fatalf("Len after reload = %d, want 100", n)
	}
}

// TestDeviceStorageModelFormula pins the analytic ann_in_ssd storage
// model: miss traffic is the uncached fraction of the scan's DRAM
// bytes, fetched in page-granular waves across the channel array, each
// wave paying one read latency while the bytes stream at the internal
// bandwidth.
func TestDeviceStorageModelFormula(t *testing.T) {
	ds := tieredTestDataset(t)
	base := buildTieredRegion(t, ds, Config{Execution: Device, VectorLength: 4})
	datasetBytes := int64(ds.N() * ds.Dim() * 4)

	tr := buildTieredRegion(t, ds, Config{Execution: Device, VectorLength: 4, Storage: &Storage{
		BudgetBytes: datasetBytes / 4,
	}})
	bres, bst, err := base.SearchStats(ds.Queries[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := tr.SearchStats(ds.Queries[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bres {
		if res[i] != bres[i] {
			t.Fatalf("storage changed neighbors: %+v != %+v", res[i], bres[i])
		}
	}

	// Expected values from the pinned formula, using the default
	// geometry (8 channels x QD 64, 60us, 6 GB/s, 16 KiB pages) and a
	// 1/4 cache fraction.
	missBytes := uint64(float64(bst.DRAMBytesRead) * 0.75)
	const pageB = 16 << 10
	totalPages := (bst.DRAMBytesRead + pageB - 1) / pageB
	missPages := (missBytes + pageB - 1) / pageB
	waves := (missPages + 8*64 - 1) / (8 * 64)
	if st.StorageBytesRead != missBytes {
		t.Errorf("StorageBytesRead = %d, want %d", st.StorageBytesRead, missBytes)
	}
	if st.StorageCacheHits != totalPages-missPages {
		t.Errorf("StorageCacheHits = %d, want %d", st.StorageCacheHits, totalPages-missPages)
	}
	if st.StorageStalls != waves {
		t.Errorf("StorageStalls = %d, want %d", st.StorageStalls, waves)
	}
	wantSec := bst.Seconds + float64(missBytes)/6e9 + float64(waves)*60e-6
	if diff := st.Seconds - wantSec; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Seconds = %v, want %v", st.Seconds, wantSec)
	}
	if st.Seconds <= bst.Seconds {
		t.Error("storage-backed query was not slower than all-DRAM")
	}

	// Unlimited budget: the dataset is resident, storage adds nothing.
	free := buildTieredRegion(t, ds, Config{Execution: Device, VectorLength: 4, Storage: &Storage{}})
	_, fst, err := free.SearchStats(ds.Queries[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if fst.StorageBytesRead != 0 || fst.StorageStalls != 0 {
		t.Errorf("resident storage reported misses: %+v", fst)
	}
	if fst.Seconds != bst.Seconds {
		t.Errorf("resident storage changed timing: %v != %v", fst.Seconds, bst.Seconds)
	}

	// Prefetch overlaps the transfer with compute: stall time can only
	// shrink, never below the pipeline-fill latency.
	pre := buildTieredRegion(t, ds, Config{Execution: Device, VectorLength: 4, Storage: &Storage{
		BudgetBytes: datasetBytes / 4, Prefetch: true,
	}})
	_, pst, err := pre.SearchStats(ds.Queries[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Seconds > st.Seconds {
		t.Errorf("prefetch slowed the query: %v > %v", pst.Seconds, st.Seconds)
	}
	if pst.Seconds < bst.Seconds+60e-6 {
		t.Errorf("prefetch hid even the pipeline-fill latency: %v", pst.Seconds)
	}
}
