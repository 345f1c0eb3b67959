package knn

// The out-of-core equivalence suite: tiered search must be
// bit-identical to in-RAM search — ids, order, and distances — across
// metrics × engine families (float32, fixed, PQ) × budget fractions
// (0.1, 0.5, 1.0, unlimited) × vault counts × k, on smooth and
// tie-heavy data alike. ci.sh runs this under -race, so the suite also
// exercises the store's concurrency discipline.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"ssam/internal/tier"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// tieredDataset builds the two data shapes the suite sweeps: "smooth"
// (generic random) and "ties" (coordinates from {0, 0.5, 1}, so many
// rows collide at identical distances and only the (distance, id)
// total order disambiguates).
func tieredDataset(kind string, n, dim int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		switch kind {
		case "ties":
			data[i] = float32(rng.Intn(3)) / 2
		default:
			data[i] = rng.Float32()
		}
	}
	if kind == "ties" {
		// Make ties certain, not probable: clone rows wholesale.
		for i := n / 2; i < n; i++ {
			copy(data[i*dim:(i+1)*dim], data[(i-n/2)*dim:(i-n/2+1)*dim])
		}
	}
	return data
}

var tieredBudgetFractions = []float64{0.1, 0.5, 1.0, 0 /* unlimited */}

func tieredStore(t *testing.T, data []float32, dim, vaults int, frac float64, prefetch bool) *tier.Store {
	t.Helper()
	budget := int64(0)
	if frac > 0 {
		budget = int64(frac * float64(len(data)*4))
	}
	path := filepath.Join(t.TempDir(), "tier.dat")
	s, err := tier.Create(path, data, dim, vaults, tier.Options{BudgetBytes: budget, Prefetch: prefetch})
	if err != nil {
		t.Fatalf("tier.Create: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestTieredFloatEquivalence(t *testing.T) {
	const n, dim, queries = 300, 16, 3
	for _, kind := range []string{"smooth", "ties"} {
		data := tieredDataset(kind, n, dim, 31)
		qs := tieredDataset(kind, queries, dim, 32)
		for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
			for _, vaults := range []int{1, 3, 8} {
				base := NewEngineVaults(data, dim, metric, 1, vaults)
				base.SetSerialThreshold(0)
				for _, frac := range tieredBudgetFractions {
					st := tieredStore(t, data, dim, vaults, frac, true)
					eng := NewTieredEngine(st, metric)
					for _, k := range []int{1, 5, 40} {
						for qi := 0; qi < queries; qi++ {
							q := qs[qi*dim : (qi+1)*dim]
							want, _ := base.SearchStatsSpan(q, k, nil)
							got, _, err := eng.SearchStats(q, k)
							label := fmt.Sprintf("%s/%v/vaults=%d/frac=%v/k=%d/q=%d",
								kind, metric, vaults, frac, k, qi)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							sameResults(t, label, got, want)
						}
					}
				}
			}
		}
	}
}

func TestTieredFixedEquivalence(t *testing.T) {
	const n, dim, queries = 300, 16, 3
	for _, kind := range []string{"smooth", "ties"} {
		data := tieredDataset(kind, n, dim, 33)
		qs := tieredDataset(kind, queries, dim, 34)
		fixedData := vec.ToFixedVec(data)
		for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan} {
			for _, vaults := range []int{1, 3, 8} {
				base := NewFixedEngine(fixedData, dim, metric, vaults)
				base.SetSerialThreshold(0)
				for _, frac := range tieredBudgetFractions {
					st := tieredStore(t, data, dim, vaults, frac, true)
					eng := NewTieredFixedEngine(st, metric)
					for _, k := range []int{1, 5, 40} {
						for qi := 0; qi < queries; qi++ {
							q := vec.ToFixedVec(qs[qi*dim : (qi+1)*dim])
							want, _ := base.SearchStatsSpan(q, k, nil)
							got, _, err := eng.SearchStatsSpan(q, k, nil)
							label := fmt.Sprintf("%s/%v/vaults=%d/frac=%v/k=%d/q=%d",
								kind, metric, vaults, frac, k, qi)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							sameResults(t, label, got, want)
						}
					}
				}
			}
		}
	}
}

func TestTieredPQEquivalence(t *testing.T) {
	const n, dim, queries = 300, 16, 3
	for _, kind := range []string{"smooth", "ties"} {
		data := tieredDataset(kind, n, dim, 35)
		qs := tieredDataset(kind, queries, dim, 36)
		for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
			for _, vaults := range []int{1, 3} {
				for _, rerank := range []int{0, 7, n} {
					p := PQParams{M: 4, Rerank: rerank, Seed: 10}
					base, err := NewPQEngineVaults(data, dim, metric, p, 1, vaults)
					if err != nil {
						t.Fatal(err)
					}
					base.SetSerialThreshold(0)
					for _, frac := range tieredBudgetFractions {
						st := tieredStore(t, data, dim, vaults, frac, true)
						eng, err := NewTieredPQEngine(data, dim, metric, p, 1, vaults, st)
						if err != nil {
							t.Fatal(err)
						}
						eng.SetSerialThreshold(0)
						for _, k := range []int{1, 5} {
							for qi := 0; qi < queries; qi++ {
								q := qs[qi*dim : (qi+1)*dim]
								want, _ := base.SearchStats(q, k)
								got, _, err := eng.SearchStats(q, k)
								label := fmt.Sprintf("%s/%v/vaults=%d/rerank=%d/frac=%v/k=%d/q=%d",
									kind, metric, vaults, rerank, frac, k, qi)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								sameResults(t, label, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestTieredPQDropsResidentRows(t *testing.T) {
	const n, dim = 100, 8
	data := tieredDataset("smooth", n, dim, 37)
	st := tieredStore(t, data, dim, 2, 0.5, false)
	eng, err := NewTieredPQEngine(data, dim, vec.Euclidean, PQParams{M: 4, Rerank: 10, Seed: 1}, 1, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	if eng.pq.data != nil || eng.pq.encodeData != nil {
		t.Fatal("tiered PQ engine retained the full-precision rows in RAM")
	}
	if eng.CodeBytes() == 0 {
		t.Fatal("tiered PQ engine has no resident codes")
	}
}

func TestTieredPQShapeMismatch(t *testing.T) {
	data := tieredDataset("smooth", 100, 8, 38)
	st := tieredStore(t, data, 8, 2, 0, false)
	if _, err := NewTieredPQEngine(data[:50*8], 8, vec.Euclidean, PQParams{M: 4}, 1, 2, st); err == nil {
		t.Fatal("NewTieredPQEngine accepted a store/data shape mismatch")
	}
}

func TestTieredSearchSurfacesReadErrors(t *testing.T) {
	const n, dim = 200, 8
	data := tieredDataset("smooth", n, dim, 39)
	q := data[:dim]
	boom := errors.New("injected fault")

	// Budget below one page forces a backing read for every vault, so a
	// fault on vault 2 is hit on every query.
	st := tieredStore(t, data, dim, 4, 0.1, false)
	st.SetReadHook(func(v int) error {
		if v == 2 {
			return boom
		}
		return nil
	})
	eng := NewTieredEngine(st, vec.Euclidean)
	_, err := eng.Search(q, 3)
	var re *tier.ReadError
	if !errors.As(err, &re) || re.Vault != 2 {
		t.Fatalf("tiered search error = %v, want *tier.ReadError for vault 2", err)
	}

	// Batch: queries before the failure stand, failedAt names it.
	out, failedAt, err := eng.SearchBatch([][]float32{q, q}, 3)
	if err == nil || failedAt != 0 {
		t.Fatalf("batch: failedAt=%d err=%v, want failure at 0", failedAt, err)
	}
	_ = out

	// Fixed engine path.
	stf := tieredStore(t, data, dim, 4, 0.1, false)
	stf.SetReadHook(func(v int) error { return boom })
	feng := NewTieredFixedEngine(stf, vec.Euclidean)
	if _, err := feng.Search(vec.ToFixedVec(q), 3); !errors.As(err, &re) {
		t.Fatalf("fixed tiered search error = %v, want *tier.ReadError", err)
	}

	// PQ path: the ADC scan is in-RAM, so only the re-rank touches the
	// store — a faulted store must fail the query, not degrade recall.
	stp := tieredStore(t, data, dim, 4, 0.1, false)
	peng, err := NewTieredPQEngine(data, dim, vec.Euclidean, PQParams{M: 4, Rerank: 50, Seed: 2}, 1, 4, stp)
	if err != nil {
		t.Fatal(err)
	}
	stp.SetReadHook(func(v int) error { return boom })
	if _, err := peng.Search(q, 3); !errors.As(err, &re) {
		t.Fatalf("pq tiered search error = %v, want *tier.ReadError", err)
	}
	// ADC-only config never reads the store: the same fault is invisible.
	peng.SetRerank(0)
	if _, err := peng.Search(q, 3); err != nil {
		t.Fatalf("ADC-only tiered search hit the store: %v", err)
	}
}

func TestTieredQueryDimMismatch(t *testing.T) {
	data := tieredDataset("smooth", 50, 8, 40)
	st := tieredStore(t, data, 8, 2, 0, false)
	if _, err := NewTieredEngine(st, vec.Euclidean).Search(make([]float32, 4), 3); err == nil {
		t.Fatal("tiered search accepted a mis-sized query")
	}
	if _, err := NewTieredFixedEngine(st, vec.Euclidean).Search(make([]int32, 4), 3); err == nil {
		t.Fatal("tiered fixed search accepted a mis-sized query")
	}
}

// TestTieredConcurrentEvictionSoak runs concurrent tiered queries
// against a one-page budget while every evicted page is poisoned with
// NaN. Any scan still holding an evicted page would push a NaN distance
// or a wrong neighbor; instead every result must stay bit-identical to
// the in-RAM engine.
func TestTieredConcurrentEvictionSoak(t *testing.T) {
	const n, dim, vaults = 256, 8, 4
	data := tieredDataset("smooth", n, dim, 41)
	st := tieredStore(t, data, dim, vaults, 1.0/vaults, true)
	nan := float32(math.NaN())
	st.SetEvictHook(func(v int, page []float32) {
		for i := range page {
			page[i] = nan
		}
	})
	base := NewEngineVaults(data, dim, vec.Euclidean, 1, vaults)
	base.SetSerialThreshold(0)
	eng := NewTieredEngine(st, vec.Euclidean)

	const goroutines, iters, k = 8, 40, 5
	qs := tieredDataset("smooth", goroutines, dim, 42)
	want := make([][]topk.Result, goroutines)
	for g := 0; g < goroutines; g++ {
		want[g], _ = base.SearchStatsSpan(qs[g*dim:(g+1)*dim], k, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := qs[g*dim : (g+1)*dim]
			for it := 0; it < iters; it++ {
				got, err := eng.Search(q, k)
				if err != nil {
					errs <- err
					return
				}
				for i := range want[g] {
					if got[i] != want[g][i] {
						errs <- fmt.Errorf("goroutine %d iter %d: result %d = %+v, want %+v",
							g, it, i, got[i], want[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Evictions == 0 {
		t.Fatal("soak produced no evictions; the budget is not forcing turnover")
	}
}

// TestTieredBlockNeverOutlivesItsPage pins where the buffered scan
// flushes: a page's last rows, one to three short of a block of four,
// must be scored before the page is released, never by a late flush
// from the next page's scan or from Results. Pages hold 63, 63, 63 and
// 61 rows under a one-page budget, and every evicted page is poisoned
// with NaN, so a block that straddled two pages would score a NaN: the
// float scan and the PQ re-rank (at a depth that re-ranks every row, and
// at one that leaves each page a ragged handful) must instead stay
// bit-identical to their in-RAM engines.
func TestTieredBlockNeverOutlivesItsPage(t *testing.T) {
	const n, dim, vaults, k = 250, 8, 4, 6
	data := tieredDataset("smooth", n, dim, 51)
	qs := tieredDataset("smooth", 5, dim, 52)
	nan := float32(math.NaN())
	poisoned := func(prefetch bool) *tier.Store {
		st := tieredStore(t, data, dim, vaults, 1.0/vaults, prefetch)
		st.SetEvictHook(func(v int, page []float32) {
			for i := range page {
				page[i] = nan
			}
		})
		return st
	}
	for _, prefetch := range []bool{false, true} {
		for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
			base := NewEngineVaults(data, dim, metric, 1, vaults)
			base.SetSerialThreshold(0)
			st := poisoned(prefetch)
			eng := NewTieredEngine(st, metric)
			for qi := 0; qi*dim < len(qs); qi++ {
				q := qs[qi*dim : (qi+1)*dim]
				want, wst := base.SearchStats(q, k)
				got, gst, err := eng.SearchStats(q, k)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("float/%v/prefetch=%v/q=%d", metric, prefetch, qi)
				sameResults(t, label, got, want)
				checkVaultStats(t, label, wst, gst)
			}
			if c := st.Counters(); c.Evictions == 0 {
				t.Fatal("no evictions; the budget is not forcing turnover")
			}
			for _, rerank := range []int{n, 37} {
				p := PQParams{M: 4, Rerank: rerank, Seed: 10}
				pbase, err := NewPQEngineVaults(data, dim, metric, p, 1, vaults)
				if err != nil {
					t.Fatal(err)
				}
				peng, err := NewTieredPQEngine(data, dim, metric, p, 1, vaults, poisoned(prefetch))
				if err != nil {
					t.Fatal(err)
				}
				for qi := 0; qi*dim < len(qs); qi++ {
					q := qs[qi*dim : (qi+1)*dim]
					want, wst := pbase.SearchStats(q, k)
					got, gst, err := peng.SearchStats(q, k)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("pq/%v/rerank=%d/prefetch=%v/q=%d", metric, rerank, prefetch, qi)
					sameResults(t, label, got, want)
					if gst.DistEvals != wst.DistEvals || gst.DistEvals != rerank {
						t.Fatalf("%s: re-ranked %d rows, in RAM %d, want %d", label, gst.DistEvals, wst.DistEvals, rerank)
					}
				}
			}
		}
	}
}

// TestTieredAccessors pins the shape accessors every engine exposes:
// they must report the store's geometry, not stale construction-time
// copies, and the PQ batch path must answer like its single-query
// path.
func TestTieredAccessors(t *testing.T) {
	const n, dim = 120, 8
	data := tieredDataset("smooth", n, dim, 91)
	qs := tieredDataset("smooth", 2, dim, 92)

	st := tieredStore(t, data, dim, 4, 1.0, true)
	e := NewTieredEngine(st, vec.Cosine)
	if e.N() != n || e.Dim() != dim || e.Vaults() != 4 || e.Metric() != vec.Cosine || e.Store() != st {
		t.Fatalf("tiered accessors: n=%d dim=%d vaults=%d metric=%v", e.N(), e.Dim(), e.Vaults(), e.Metric())
	}

	fst := tieredStore(t, data, dim, 3, 1.0, true)
	fe := NewTieredFixedEngine(fst, vec.Manhattan)
	if fe.N() != n || fe.Vaults() != 3 {
		t.Fatalf("fixed accessors: n=%d vaults=%d", fe.N(), fe.Vaults())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTieredFixedEngine accepted cosine")
			}
		}()
		NewTieredFixedEngine(fst, vec.Cosine)
	}()

	pst := tieredStore(t, data, dim, 2, 1.0, true)
	pe, err := NewTieredPQEngine(data, dim, vec.Euclidean, PQParams{M: 4, Rerank: 9, Seed: 7}, 1, 2, pst)
	if err != nil {
		t.Fatal(err)
	}
	if pe.N() != n || pe.Dim() != dim || pe.Metric() != vec.Euclidean || pe.Vaults() != 2 ||
		pe.M() != 4 || pe.Rerank() != 9 || pe.Store() != pst {
		t.Fatalf("pq accessors: n=%d dim=%d vaults=%d m=%d rerank=%d", pe.N(), pe.Dim(), pe.Vaults(), pe.M(), pe.Rerank())
	}
	batch, failedAt, err := pe.SearchBatch([][]float32{qs[:dim], qs[dim:]}, 3)
	if err != nil || failedAt != -1 {
		t.Fatalf("SearchBatch: failedAt=%d err=%v", failedAt, err)
	}
	for i := range batch {
		want, err := pe.Search(qs[i*dim:(i+1)*dim], 3)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "pq batch", batch[i], want)
	}
	if c := pe.Counters(); c.RerankEvals == 0 {
		t.Errorf("counters after rerank searches: %+v", c)
	}
}
