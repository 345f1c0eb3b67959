package knn

// Out-of-core engines over the tier store (internal/tier): the dataset
// lives in a backing file partitioned into the same contiguous vault
// pages the in-RAM vault-parallel scan uses, and queries stream pages
// through the store's budgeted cache — prefetching the next cold vault
// while the current one scans.
//
// The bit-exactness contract: every tiered engine returns ids, order,
// and distances identical to its in-RAM counterpart on the same data.
// It holds because (1) the store serves byte-identical copies of the
// file's pages, (2) each page is scanned with the same distance kernel
// over the same rows, into a vault-local topk.Selector, and (3) the
// vault lists are reduced with topk.MergeSorted under the
// (distance, id) total order — the same reduction that already makes
// the in-RAM vault-parallel scan bit-identical to a serial one
// (vault.go). Storage faults surface as errors, never as partial or
// wrong neighbor lists.

import (
	"fmt"

	"ssam/internal/obs"
	"ssam/internal/tier"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// TieredEngine is the out-of-core counterpart of Engine: an exact
// linear scan over float32 vectors resident in a tier store.
type TieredEngine struct {
	store  *tier.Store
	metric vec.Metric
	dim    int
	n      int
}

// NewTieredEngine creates a tiered linear engine over an opened store.
func NewTieredEngine(store *tier.Store, metric vec.Metric) *TieredEngine {
	return &TieredEngine{store: store, metric: metric, dim: store.Dim(), n: store.Rows()}
}

// N returns the database size.
func (e *TieredEngine) N() int { return e.n }

// Dim returns the vector dimensionality.
func (e *TieredEngine) Dim() int { return e.dim }

// Metric returns the engine's distance metric.
func (e *TieredEngine) Metric() vec.Metric { return e.metric }

// Vaults returns the store's page count (the scan's partition count).
func (e *TieredEngine) Vaults() int { return e.store.Vaults() }

// Store exposes the backing store (counters, budget).
func (e *TieredEngine) Store() *tier.Store { return e.store }

// Search returns the k nearest database ids to q, closest first —
// bit-identical to Engine.Search over the same data.
func (e *TieredEngine) Search(q []float32, k int) ([]topk.Result, error) {
	res, _, err := e.SearchStatsSpan(q, k, nil)
	return res, err
}

// SearchStats is Search plus work accounting.
func (e *TieredEngine) SearchStats(q []float32, k int) ([]topk.Result, Stats, error) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan scans the store's vault pages in order, prefetching
// the next page while the current one scans, and merges the vault-local
// top-k lists under the total order. Each page is recorded as a "vault"
// child span of sp (nil-safe) tagged with its cache outcome.
func (e *TieredEngine) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]topk.Result, Stats, error) {
	if len(q) != e.dim {
		return nil, Stats{}, fmt.Errorf("knn: query dim %d, want %d", len(q), e.dim)
	}
	var st Stats
	t := vec.NewTile(e.metric, [][]float32{q})
	vaults := e.store.Vaults()
	lists := make([][]topk.Result, 0, vaults)
	for v := 0; v < vaults; v++ {
		if v+1 < vaults {
			e.store.Prefetch(v + 1)
		}
		res, vst, err := e.scanPage(t, k, v, sp)
		if err != nil {
			return nil, st, err
		}
		st.Add(vst)
		lists = append(lists, res)
	}
	return topk.MergeSorted(k, lists...), st, nil
}

// scanPage pins vault page v and runs Engine's scan kernel over it for
// the single query of t.
func (e *TieredEngine) scanPage(t *vec.Tile, k, v int, sp *obs.Span) ([]topk.Result, Stats, error) {
	pg, err := e.store.Acquire(v)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("knn: tiered scan: %w", err)
	}
	defer pg.Release()
	lo, hi := pg.Rows()
	vsp := sp.Start("vault",
		obs.Tag{Key: "vault", Value: v},
		obs.Tag{Key: "rows", Value: hi - lo},
		obs.Tag{Key: "tier_hit", Value: pg.CacheHit()})
	defer vsp.End()
	ts := NewTileScan(t, k)
	data := pg.Data()
	for i := lo; i < hi; i++ {
		ts.Offer(i, data[(i-lo)*e.dim:(i-lo+1)*e.dim])
	}
	// Results scores the last rows buffered while the page is still
	// pinned: the deferred Release runs after it.
	res, st := ts.Results()
	return res[0], st, nil
}

// SearchBatch runs one Search per query, sequentially: the vault
// pipeline (scan overlapped with the next page's read) is the
// parallelism, and sequential queries reuse the hot cache instead of
// thrashing it. On error, results before failedAt are valid and
// failedAt names the query that failed (-1 on success).
func (e *TieredEngine) SearchBatch(qs [][]float32, k int) (out [][]topk.Result, failedAt int, err error) {
	return e.SearchBatchSpan(qs, k, nil)
}

// SearchBatchSpan is SearchBatch recording "vault" child spans of sp.
func (e *TieredEngine) SearchBatchSpan(qs [][]float32, k int, sp *obs.Span) ([][]topk.Result, int, error) {
	out := make([][]topk.Result, len(qs))
	for i, q := range qs {
		res, _, err := e.SearchStatsSpan(q, k, sp)
		if err != nil {
			return out, i, err
		}
		out[i] = res
	}
	return out, -1, nil
}

// TieredFixedEngine is the out-of-core counterpart of FixedEngine: the
// store holds float32 rows (the only on-disk format) and each page is
// converted to Q16.16 with the same deterministic vec.ToFixed the
// in-RAM engine's caller uses, so distances are bit-identical to a
// FixedEngine over a whole-dataset conversion.
type TieredFixedEngine struct {
	store  *tier.Store
	metric vec.Metric
	dim    int
	n      int
}

// NewTieredFixedEngine creates a tiered fixed-point engine. metric must
// be vec.Euclidean or vec.Manhattan (the metrics with fixed kernels).
func NewTieredFixedEngine(store *tier.Store, metric vec.Metric) *TieredFixedEngine {
	if metric != vec.Euclidean && metric != vec.Manhattan {
		panic("knn: fixed-point engine supports euclidean and manhattan only")
	}
	return &TieredFixedEngine{store: store, metric: metric, dim: store.Dim(), n: store.Rows()}
}

// N returns the database size.
func (e *TieredFixedEngine) N() int { return e.n }

// Vaults returns the store's page count.
func (e *TieredFixedEngine) Vaults() int { return e.store.Vaults() }

// Search returns the k nearest neighbors of the fixed-point query q,
// distances in raw fixed-point units.
func (e *TieredFixedEngine) Search(q []int32, k int) ([]topk.Result, error) {
	res, _, err := e.SearchStatsSpan(q, k, nil)
	return res, err
}

// SearchStatsSpan is Search plus work accounting and per-page "vault"
// spans.
func (e *TieredFixedEngine) SearchStatsSpan(q []int32, k int, sp *obs.Span) ([]topk.Result, Stats, error) {
	if len(q) != e.dim {
		return nil, Stats{}, fmt.Errorf("knn: query dim %d, want %d", len(q), e.dim)
	}
	dist := vec.SquaredL2Fixed
	if e.metric == vec.Manhattan {
		dist = vec.L1Fixed
	}
	var st Stats
	vaults := e.store.Vaults()
	lists := make([][]topk.Result, 0, vaults)
	fixed := make([]int32, 0)
	for v := 0; v < vaults; v++ {
		if v+1 < vaults {
			e.store.Prefetch(v + 1)
		}
		pg, err := e.store.Acquire(v)
		if err != nil {
			return nil, st, fmt.Errorf("knn: tiered scan: %w", err)
		}
		lo, hi := pg.Rows()
		vsp := sp.Start("vault",
			obs.Tag{Key: "vault", Value: v},
			obs.Tag{Key: "rows", Value: hi - lo},
			obs.Tag{Key: "tier_hit", Value: pg.CacheHit()})
		data := pg.Data()
		if cap(fixed) < len(data) {
			fixed = make([]int32, len(data))
		}
		fixed = fixed[:len(data)]
		for i, f := range data {
			fixed[i] = vec.ToFixed(f)
		}
		sel := topk.New(k)
		for i := lo; i < hi; i++ {
			row := fixed[(i-lo)*e.dim : (i-lo+1)*e.dim]
			d := float64(dist(q, row))
			st.DistEvals++
			st.Dims += e.dim
			st.PQInserts++
			if sel.Push(i, d) {
				st.PQKept++
			}
		}
		pg.Release()
		vsp.End()
		lists = append(lists, sel.Results())
	}
	return topk.MergeSorted(k, lists...), st, nil
}

// TieredPQEngine is the out-of-core counterpart of PQEngine, split the
// way a PQ-on-storage system actually deploys: the packed code slabs
// (n·M bytes) stay in RAM where the ADC scan needs them, and the
// full-precision float32 rows — the 4·dim/M-times-larger half — live in
// the tier store, read back only for the exact re-rank of the top ADC
// candidates. Candidates are re-ranked page by page (Selector admission
// is push-order independent, so grouping by vault cannot change the
// result), with the next candidate page prefetched while the current
// one scores.
type TieredPQEngine struct {
	pq    *PQEngine
	store *tier.Store
}

// NewTieredPQEngine trains and encodes like NewPQEngineVaults, then
// drops the retained full-precision rows in favor of the store. The
// store must hold exactly the training data (same rows, same order) —
// it is the re-rank's source of truth, and the bit-exactness contract
// is against an in-RAM engine over that same data.
func NewTieredPQEngine(data []float32, dim int, metric vec.Metric, p PQParams, workers, vaults int, store *tier.Store) (*TieredPQEngine, error) {
	if store.Dim() != dim || store.Rows()*dim != len(data) {
		return nil, fmt.Errorf("knn: store shape %dx%d does not match data %dx%d",
			store.Rows(), store.Dim(), len(data)/dim, dim)
	}
	e, err := NewPQEngineVaults(data, dim, metric, p, workers, vaults)
	if err != nil {
		return nil, err
	}
	// The whole point: the full-precision rows do not stay resident.
	// encodeData is construction-only; data is replaced by the store.
	e.data = nil
	e.encodeData = nil
	return &TieredPQEngine{pq: e, store: store}, nil
}

// N returns the database size.
func (e *TieredPQEngine) N() int { return e.pq.n }

// Dim returns the vector dimensionality.
func (e *TieredPQEngine) Dim() int { return e.pq.dim }

// Metric returns the engine's distance metric.
func (e *TieredPQEngine) Metric() vec.Metric { return e.pq.metric }

// Vaults returns the ADC scan's intra-query vault count.
func (e *TieredPQEngine) Vaults() int { return e.pq.vaults }

// M returns the code width in bytes per row.
func (e *TieredPQEngine) M() int { return e.pq.M() }

// CodeBytes returns the resident packed-code size — the engine's whole
// in-RAM footprint for the dataset.
func (e *TieredPQEngine) CodeBytes() int { return e.pq.CodeBytes() }

// Rerank returns the current re-rank depth (0 = ADC only).
func (e *TieredPQEngine) Rerank() int { return e.pq.Rerank() }

// SetRerank adjusts the re-rank depth; safe beside running searches,
// as PQEngine.SetRerank is.
func (e *TieredPQEngine) SetRerank(r int) { e.pq.SetRerank(r) }

// SetSerialThreshold overrides the ADC scan's serial threshold.
func (e *TieredPQEngine) SetSerialThreshold(n int) { e.pq.SetSerialThreshold(n) }

// Counters returns the cumulative work counters.
func (e *TieredPQEngine) Counters() PQCounters { return e.pq.Counters() }

// Store exposes the backing store (counters, budget).
func (e *TieredPQEngine) Store() *tier.Store { return e.store }

// Search returns the k approximate nearest neighbors of q —
// bit-identical to PQEngine.Search with the same params and seed.
func (e *TieredPQEngine) Search(q []float32, k int) ([]topk.Result, error) {
	res, _, err := e.SearchStatsSpan(q, k, nil)
	return res, err
}

// SearchStats is Search plus work accounting.
func (e *TieredPQEngine) SearchStats(q []float32, k int) ([]topk.Result, Stats, error) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan runs the in-RAM ADC scan (recording "vault" child
// spans like PQEngine), then re-ranks the candidates through the store
// page by page, each page a "rerank" child span tagged with its cache
// outcome.
func (e *TieredPQEngine) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]topk.Result, Stats, error) {
	if len(q) != e.pq.dim {
		return nil, Stats{}, fmt.Errorf("knn: query dim %d, want %d", len(q), e.pq.dim)
	}
	rerank := e.pq.Rerank()
	cands, st := e.pq.adcCandidates(q, k, rerank, sp, false)
	if rerank == 0 {
		return e.pq.adcResults(cands), st, nil
	}
	// Bucket candidates by vault page so each page is pinned exactly
	// once; ascending vault order makes the prefetch overlap useful.
	buckets := make([][]cand, e.store.Vaults())
	order := make([]int, 0, e.store.Vaults())
	for _, c := range cands {
		v := e.store.PageOf(c.row())
		if buckets[v] == nil {
			order = append(order, v)
		}
		buckets[v] = append(buckets[v], c)
	}
	// Sort the page visit order ascending for sequential IO.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	ts := NewTileScan(vec.NewTile(e.pq.metric, [][]float32{q}), k)
	for oi, v := range order {
		if oi+1 < len(order) {
			e.store.Prefetch(order[oi+1])
		}
		pg, err := e.store.Acquire(v)
		if err != nil {
			return nil, st, fmt.Errorf("knn: tiered rerank: %w", err)
		}
		rsp := sp.Start("rerank",
			obs.Tag{Key: "vault", Value: v},
			obs.Tag{Key: "cands", Value: len(buckets[v])},
			obs.Tag{Key: "tier_hit", Value: pg.CacheHit()})
		for _, c := range buckets[v] {
			ts.Offer(c.row(), pg.Row(c.row()))
		}
		// A block may not straddle two pages: the rows of this one are
		// scored before it can be evicted.
		ts.Flush()
		pg.Release()
		rsp.End()
	}
	res, rst := ts.Results()
	st.Add(rst)
	e.pq.counters.rerankEvals.Add(uint64(len(cands)))
	return res[0], st, nil
}

// SearchBatch runs one Search per query sequentially (see
// TieredEngine.SearchBatch for why). failedAt is -1 on success.
func (e *TieredPQEngine) SearchBatch(qs [][]float32, k int) ([][]topk.Result, int, error) {
	return e.SearchBatchSpan(qs, k, nil)
}

// SearchBatchSpan is SearchBatch recording child spans of sp.
func (e *TieredPQEngine) SearchBatchSpan(qs [][]float32, k int, sp *obs.Span) ([][]topk.Result, int, error) {
	out := make([][]topk.Result, len(qs))
	for i, q := range qs {
		res, _, err := e.SearchStatsSpan(q, k, sp)
		if err != nil {
			return out, i, err
		}
		out[i] = res
	}
	return out, -1, nil
}
