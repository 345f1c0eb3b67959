package knn

import (
	"ssam/internal/obs"
	"ssam/internal/par"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// FixedEngine is an exact linear-scan engine over Q16.16 fixed-point
// vectors (Section II-D: fixed-point arithmetic is much cheaper in
// hardware and loses negligible accuracy). Only Euclidean and
// Manhattan have fixed-point kernels.
type FixedEngine struct {
	Walk
	data   []int32
	dim    int
	n      int
	metric vec.Metric
}

// NewFixedEngine creates a fixed-point linear engine. metric must be
// vec.Euclidean or vec.Manhattan. vaults is the intra-query scan
// partition count (<= 0 selects DefaultVaults, above MaxVaults clamps).
func NewFixedEngine(data []int32, dim int, metric vec.Metric, vaults int) *FixedEngine {
	if dim <= 0 || len(data)%dim != 0 {
		panic("knn: data length not a multiple of dim")
	}
	if metric != vec.Euclidean && metric != vec.Manhattan {
		panic("knn: fixed-point engine supports euclidean and manhattan only")
	}
	return &FixedEngine{Walk: NewWalk(vaults), data: data, dim: dim, n: len(data) / dim, metric: metric}
}

// N returns the database size.
func (e *FixedEngine) N() int { return e.n }

// Row returns fixed-point database vector i.
func (e *FixedEngine) Row(i int) []int32 { return e.data[i*e.dim : (i+1)*e.dim] }

// Search returns the k nearest neighbors of the fixed-point query q.
// Distances in the results are raw fixed-point units.
func (e *FixedEngine) Search(q []int32, k int) []topk.Result {
	res, _ := e.SearchStatsSpan(q, k, nil)
	return res
}

// SearchStats is Search plus work accounting.
func (e *FixedEngine) SearchStats(q []int32, k int) ([]topk.Result, Stats) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of sp
// per scanned slice (sp may be nil). Results are bit-identical to a
// serial scan at any vault count.
func (e *FixedEngine) SearchStatsSpan(q []int32, k int, sp *obs.Span) ([]topk.Result, Stats) {
	res, st, err := WalkVaults(&e.Walk, fixedPass{oneQuery{e.split(e.n), k}, e, q}, 1, false, sp)
	if err != nil {
		panic(err) // a vault's panic, re-raised on the caller's goroutine
	}
	return res, st
}

// oneQuery is what the single-query passes below share: the rows' split,
// and the merge of each partition's k best under the total order.
type oneQuery struct {
	par.Split
	k int
}

func (o oneQuery) Merge(parts [][]topk.Result) []topk.Result { return topk.MergeSorted(o.k, parts...) }

// fixedPass is one query's walk over a FixedEngine's rows.
type fixedPass struct {
	oneQuery
	e *FixedEngine
	q []int32
}

func (p fixedPass) Scan(a, b int, _ *obs.Span) ([]topk.Result, Stats, error) {
	dist := vec.SquaredL2Fixed
	if p.e.metric == vec.Manhattan {
		dist = vec.L1Fixed
	}
	lo, hi := p.Bounds(a, b)
	sel, st := topk.New(p.k), Stats{DistEvals: hi - lo, Dims: (hi - lo) * p.e.dim, PQInserts: hi - lo}
	for i := lo; i < hi; i++ {
		if sel.Push(i, float64(dist(p.q, p.e.Row(i)))) {
			st.PQKept++
		}
	}
	return sel.Results(), st, nil
}

// HammingEngine is an exact linear-scan engine over binarized vectors
// using Hamming distance, the workload of Table V's Hamming row and
// the Table VI SSAM-vs-AP comparison.
type HammingEngine struct {
	Walk
	data []vec.Binary
}

// NewHammingEngine creates a Hamming-space linear engine. vaults is
// the intra-query scan partition count (<= 0 selects DefaultVaults,
// above MaxVaults clamps).
func NewHammingEngine(data []vec.Binary, vaults int) *HammingEngine {
	return &HammingEngine{Walk: NewWalk(vaults), data: data}
}

// N returns the database size.
func (e *HammingEngine) N() int { return len(e.data) }

// Search returns the k nearest codes to q by Hamming distance.
func (e *HammingEngine) Search(q vec.Binary, k int) []topk.Result {
	res, _ := e.SearchStatsSpan(q, k, nil)
	return res
}

// SearchStats is Search plus work accounting; Dims counts code bits.
func (e *HammingEngine) SearchStats(q vec.Binary, k int) ([]topk.Result, Stats) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of sp
// per scanned slice (sp may be nil). Results are bit-identical to a
// serial scan at any vault count.
func (e *HammingEngine) SearchStatsSpan(q vec.Binary, k int, sp *obs.Span) ([]topk.Result, Stats) {
	res, st, err := WalkVaults(&e.Walk, hammingPass{oneQuery{e.split(len(e.data)), k}, e, q}, 1, false, sp)
	if err != nil {
		panic(err) // a vault's panic, re-raised on the caller's goroutine
	}
	return res, st
}

// hammingPass is one query's walk over a HammingEngine's codes.
type hammingPass struct {
	oneQuery
	e *HammingEngine
	q vec.Binary
}

func (p hammingPass) Scan(a, b int, _ *obs.Span) ([]topk.Result, Stats, error) {
	lo, hi := p.Bounds(a, b)
	sel, st := topk.New(p.k), Stats{DistEvals: hi - lo, Dims: (hi - lo) * p.q.Dim, PQInserts: hi - lo}
	for i := lo; i < hi; i++ {
		if sel.Push(i, float64(vec.Hamming(p.q, p.e.data[i]))) {
			st.PQKept++
		}
	}
	return sel.Results(), st, nil
}
