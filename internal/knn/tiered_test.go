package knn

// The out-of-core equivalence suite: a scan over a tier store must be
// bit-identical to the same scan over resident rows — ids, order, and
// distances — across metrics × scans (exact, PQ) × budget fractions
// (0.1, 0.5, 1.0, unlimited) × vault counts × k × batch sizes, on smooth
// and tie-heavy data alike. ci.sh runs this under -race, so the suite
// also exercises the store's concurrency discipline.

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

// runOne is a batch of one over a store-backed exact scan.
func runOne(s *ExactScan, q []float32, k int) ([]topk.Result, Stats, error) {
	out, st, err := s.Run([][]float32{q}, k, nil)
	if err != nil {
		return nil, st, err
	}
	return out[0], st, nil
}

// tieredBatchSizes straddle the query tile's register widths (4, 2, 1).
var tieredBatchSizes = []int{1, 3, 16, 17}

func TestTieredFloatEquivalence(t *testing.T) {
	const n, dim, queries = 300, 16, 17
	for _, kind := range []string{"smooth", "ties"} {
		data := tieredDataset(kind, n, dim, 31)
		flat := tieredDataset(kind, queries, dim, 32)
		qs := make([][]float32, queries)
		for qi := range qs {
			qs[qi] = flat[qi*dim : (qi+1)*dim]
		}
		for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
			for _, vaults := range []int{1, 3, 8} {
				base := NewEngineVaults(data, dim, metric, 1, vaults)
				base.SetSerialThreshold(0)
				for _, frac := range tieredBudgetFractions {
					st := tieredStore(t, data, dim, vaults, frac, true)
					eng := NewExactScan(st, metric)
					for _, k := range []int{1, 5, 40} {
						label := fmt.Sprintf("%s/%v/vaults=%d/frac=%v/k=%d", kind, metric, vaults, frac, k)
						single := make([][]topk.Result, queries)
						for qi, q := range qs {
							want, _ := base.SearchStatsSpan(q, k, nil)
							got, _, err := runOne(eng, q, k)
							if err != nil {
								t.Fatalf("%s/q=%d: %v", label, qi, err)
							}
							sameResults(t, fmt.Sprintf("%s/q=%d", label, qi), got, want)
							single[qi] = got
						}
						// A batch is one page-tiled walk: the same lists as
						// its queries alone and as the resident batch, with
						// every page pinned once, not once per query.
						for _, b := range tieredBatchSizes {
							want, wst := base.SearchBatchSpan(qs[:b], k, nil)
							before := st.Counters()
							got, gst, err := eng.Run(qs[:b], k, nil)
							if err != nil {
								t.Fatalf("%s/B=%d: %v", label, b, err)
							}
							after := st.Counters()
							if pins := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses; pins != uint64(st.Vaults()) {
								t.Fatalf("%s/B=%d: batch pinned %d pages, store has %d", label, b, pins, st.Vaults())
							}
							checkVaultStats(t, fmt.Sprintf("%s/B=%d", label, b), wst, gst)
							for qi := range got {
								sameResults(t, fmt.Sprintf("%s/B=%d/q=%d vs resident batch", label, b, qi), got[qi], want[qi])
								sameResults(t, fmt.Sprintf("%s/B=%d/q=%d vs single", label, b, qi), got[qi], single[qi])
							}
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
						eng, err := NewPQScan(data, dim, metric, p, 1, vaults, st)
						if err != nil {
							t.Fatal(err)
						}
						eng.SetSerialThreshold(0)
						for _, k := range []int{1, 5} {
							for qi := 0; qi < queries; qi++ {
								q := qs[qi*dim : (qi+1)*dim]
								want, _ := base.SearchStats(q, k)
								got, _, err := eng.Run(q, k, nil)
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
	eng, err := NewPQScan(data, dim, vec.Euclidean, PQParams{M: 4, Rerank: 10, Seed: 1}, 1, 2, st)
	if err != nil {
		t.Fatal(err)
	}
	if src, ok := eng.src.(paged); !ok || src.store != st {
		t.Fatalf("tiered PQ engine reads its full-precision rows from %T, want the store", eng.src)
	}
	if eng.CodeBytes() == 0 {
		t.Fatal("tiered PQ engine has no resident codes")
	}
}

func TestTieredPQShapeMismatch(t *testing.T) {
	data := tieredDataset("smooth", 100, 8, 38)
	st := tieredStore(t, data, 8, 2, 0, false)
	if _, err := NewPQScan(data[:50*8], 8, vec.Euclidean, PQParams{M: 4}, 1, 2, st); err == nil {
		t.Fatal("NewPQScan accepted a store/data shape mismatch")
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
	eng := NewExactScan(st, vec.Euclidean)
	_, _, err := runOne(eng, q, 3)
	var re *tier.ReadError
	if !errors.As(err, &re) || re.Vault != 2 {
		t.Fatalf("tiered search error = %v, want *tier.ReadError for vault 2", err)
	}

	// Batch: the walk is shared by all the queries, so a page that cannot
	// be read fails every one of them — typed, and with no partial lists,
	// though pages 0 and 1 were scanned.
	out, _, err := eng.Run([][]float32{q, q, q}, 3, nil)
	re = nil
	if !errors.As(err, &re) || re.Vault != 2 || out != nil {
		t.Fatalf("batch: out=%v err=%v, want no lists and *tier.ReadError for vault 2", out, err)
	}

	// PQ path: the ADC scan is in-RAM, so only the re-rank touches the
	// store — a faulted store must fail the query, not degrade recall.
	stp := tieredStore(t, data, dim, 4, 0.1, false)
	peng, err := NewPQScan(data, dim, vec.Euclidean, PQParams{M: 4, Rerank: 50, Seed: 2}, 1, 4, stp)
	if err != nil {
		t.Fatal(err)
	}
	// Under this budget every pin is a read; count what one query takes.
	reads := 0
	stp.SetReadHook(func(int) error { reads++; return nil })
	first, _, err := peng.Run(q, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	perQuery := reads
	stp.SetReadHook(func(v int) error { return boom })
	if _, _, err := peng.Run(q, 3, nil); !errors.As(err, &re) {
		t.Fatalf("pq tiered search error = %v, want *tier.ReadError", err)
	}
	// PQ batches run a query at a time: failedAt names the one that hit
	// the fault, and what was answered before it stands.
	reads = 0
	stp.SetReadHook(func(v int) error {
		if reads++; reads > perQuery {
			return boom
		}
		return nil
	})
	pout, failedAt, err := peng.RunBatch([][]float32{q, q, q}, 3, nil)
	if !errors.As(err, &re) || failedAt != 1 {
		t.Fatalf("pq batch: failedAt=%d err=%v, want *tier.ReadError at 1", failedAt, err)
	}
	sameResults(t, "pq batch query before the fault", pout[0], first)
	// ADC-only config never reads the store: the same fault is invisible.
	stp.SetReadHook(func(v int) error { return boom })
	peng.SetRerank(0)
	if _, _, err := peng.Run(q, 3, nil); err != nil {
		t.Fatalf("ADC-only tiered search hit the store: %v", err)
	}
}

func TestTieredQueryDimMismatch(t *testing.T) {
	data := tieredDataset("smooth", 50, 8, 40)
	st := tieredStore(t, data, 8, 2, 0, false)
	if _, _, err := runOne(NewExactScan(st, vec.Euclidean), make([]float32, 4), 3); err == nil {
		t.Fatal("tiered search accepted a mis-sized query")
	}
	peng, err := NewPQScan(data, 8, vec.Euclidean, PQParams{M: 4, Seed: 1}, 1, 2, tieredStore(t, data, 8, 2, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := peng.Run(make([]float32, 4), 3, nil); err == nil {
		t.Fatal("tiered pq search accepted a mis-sized query")
	}
	if _, failedAt, err := peng.RunBatch([][]float32{data[:8], make([]float32, 4)}, 3, nil); err == nil || failedAt != 1 {
		t.Fatalf("tiered pq batch with a mis-sized query: failedAt=%d err=%v, want an error at 1", failedAt, err)
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
	eng := NewExactScan(st, vec.Euclidean)

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
			// Odd goroutines ask alone; even ones lead a batch of three,
			// which holds each page for three queries' worth of scanning.
			batch := [][]float32{qs[g*dim : (g+1)*dim]}
			if g%2 == 0 {
				for _, o := range []int{1, 2} {
					h := (g + o) % goroutines
					batch = append(batch, qs[h*dim:(h+1)*dim])
				}
			}
			for it := 0; it < iters; it++ {
				got, _, err := eng.Run(batch, k, nil)
				if err != nil {
					errs <- err
					return
				}
				for j := range got {
					w := want[(g+j)%goroutines]
					for i := range w {
						if got[j][i] != w[i] {
							errs <- fmt.Errorf("goroutine %d iter %d query %d: result %d = %+v, want %+v",
								g, it, j, i, got[j][i], w[i])
							return
						}
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
			eng := NewExactScan(st, metric)
			var batch [][]float32
			for qi := 0; qi*dim < len(qs); qi++ {
				q := qs[qi*dim : (qi+1)*dim]
				batch = append(batch, q)
				want, wst := base.SearchStats(q, k)
				got, gst, err := runOne(eng, q, k)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("float/%v/prefetch=%v/q=%d", metric, prefetch, qi)
				sameResults(t, label, got, want)
				checkVaultStats(t, label, wst, gst)
			}
			// The same ragged page tails under a batch of five: one tile of
			// four queries and one of one share each buffered block.
			want, wst := base.SearchBatchSpan(batch, k, nil)
			got, gst, err := eng.Run(batch, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range want {
				sameResults(t, fmt.Sprintf("float/%v/prefetch=%v/batch q=%d", metric, prefetch, qi), got[qi], want[qi])
			}
			checkVaultStats(t, fmt.Sprintf("float/%v/prefetch=%v/batch", metric, prefetch), wst, gst)
			if c := st.Counters(); c.Evictions == 0 {
				t.Fatal("no evictions; the budget is not forcing turnover")
			}
			for _, rerank := range []int{n, 37} {
				p := PQParams{M: 4, Rerank: rerank, Seed: 10}
				pbase, err := NewPQEngineVaults(data, dim, metric, p, 1, vaults)
				if err != nil {
					t.Fatal(err)
				}
				peng, err := NewPQScan(data, dim, metric, p, 1, vaults, poisoned(prefetch))
				if err != nil {
					t.Fatal(err)
				}
				for qi := 0; qi*dim < len(qs); qi++ {
					q := qs[qi*dim : (qi+1)*dim]
					want, wst := pbase.SearchStats(q, k)
					got, gst, err := peng.Run(q, k, nil)
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

// TestTieredAccessors pins the shape accessors of the store-backed
// scans: they must report the store's geometry, not stale
// construction-time copies, a closed store must fail the scan, and the PQ batch
// path must answer like its single-query path.
func TestTieredAccessors(t *testing.T) {
	const n, dim = 120, 8
	data := tieredDataset("smooth", n, dim, 91)
	qs := tieredDataset("smooth", 2, dim, 92)

	st := tieredStore(t, data, dim, 4, 1.0, true)
	e := NewExactScan(st, vec.Cosine)
	if e.N() != n || e.Dim() != dim || e.Vaults() != 4 || e.Metric() != vec.Cosine || e.Store() != st {
		t.Fatalf("tiered accessors: n=%d dim=%d vaults=%d metric=%v", e.N(), e.Dim(), e.Vaults(), e.Metric())
	}
	if out, _, err := e.Run(nil, 3, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
	if err := e.Store().Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runOne(e, qs[:dim], 3); !errors.Is(err, tier.ErrClosed) {
		t.Fatalf("search after Close = %v, want tier.ErrClosed", err)
	}
	// A resident engine has no store, and closing that is a no-op.
	if ram := NewEngine(data, dim, vec.Cosine, 1); ram.Store() != nil || ram.Store().Close() != nil {
		t.Fatal("a resident engine reported a store")
	}

	pst := tieredStore(t, data, dim, 2, 1.0, true)
	pe, err := NewPQScan(data, dim, vec.Euclidean, PQParams{M: 4, Rerank: 9, Seed: 7}, 1, 2, pst)
	if err != nil {
		t.Fatal(err)
	}
	if pe.N() != n || pe.Dim() != dim || pe.Metric() != vec.Euclidean || pe.Vaults() != 2 ||
		pe.M() != 4 || pe.Rerank() != 9 || pe.Store() != pst {
		t.Fatalf("pq accessors: n=%d dim=%d vaults=%d m=%d rerank=%d", pe.N(), pe.Dim(), pe.Vaults(), pe.M(), pe.Rerank())
	}
	batch, failedAt, err := pe.RunBatch([][]float32{qs[:dim], qs[dim:]}, 3, nil)
	if err != nil || failedAt != -1 {
		t.Fatalf("RunBatch: failedAt=%d err=%v", failedAt, err)
	}
	for i := range batch {
		want, _, err := pe.Run(qs[i*dim:(i+1)*dim], 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "pq batch", batch[i], want)
	}
	if c := pe.Counters(); c.RerankEvals == 0 {
		t.Errorf("counters after rerank searches: %+v", c)
	}
	if err := pe.Store().Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pe.Run(qs[:dim], 3, nil); !errors.Is(err, tier.ErrClosed) {
		t.Fatalf("pq search after Close = %v, want tier.ErrClosed", err)
	}
}
