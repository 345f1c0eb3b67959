// Package lsh implements hyperplane multi-probe locality-sensitive
// hashing (HP-MPLSH), the third index characterized in Section II-C of
// the SSAM paper (via the FALCONN library): "MPLSH constructs a set of
// hash tables where each hash location is associated with a bucket of
// similar vectors ... MPLSH applies small perturbations to the hash
// result to create additional probes into the same hash table." The
// paper's configuration cuts the space with 20 random hyperplanes.
package lsh

import (
	"container/heap"
	"math/rand"
	"sort"

	"ssam/internal/knn"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Params configures index construction and probing.
type Params struct {
	Tables int   // independent hash tables (L)
	Bits   int   // hyperplanes per table; the paper uses 20
	Seed   int64 // hyperplane randomness
}

// DefaultParams mirrors the paper's HP-MPLSH configuration.
func DefaultParams() Params {
	return Params{Tables: 4, Bits: 20, Seed: 1}
}

type table struct {
	planes  [][]float32 // Bits rows of dim coefficients
	buckets map[uint32][]int32
}

// Index is a built hyperplane MPLSH index.
type Index struct {
	data   []float32
	dim    int
	n      int
	bits   int
	tables []table
	// Probes is the number of buckets probed per table per query;
	// sweeping it trades accuracy for throughput (Fig. 2).
	Probes int
}

// Build constructs the index over a flattened row-major database.
func Build(data []float32, dim int, p Params) *Index {
	if dim <= 0 || len(data)%dim != 0 {
		panic("lsh: data length not a multiple of dim")
	}
	if p.Tables <= 0 {
		p.Tables = 1
	}
	if p.Bits <= 0 || p.Bits > 30 {
		panic("lsh: bits must be in 1..30")
	}
	idx := &Index{data: data, dim: dim, n: len(data) / dim, bits: p.Bits, Probes: 8}
	rng := rand.New(rand.NewSource(p.Seed))
	idx.tables = make([]table, p.Tables)
	for t := range idx.tables {
		tb := &idx.tables[t]
		tb.planes = make([][]float32, p.Bits)
		for b := range tb.planes {
			row := make([]float32, dim)
			for d := range row {
				row[d] = float32(rng.NormFloat64())
			}
			tb.planes[b] = row
		}
		tb.buckets = make(map[uint32][]int32)
		for i := 0; i < idx.n; i++ {
			h, _ := hashWithMargins(idx.row(int32(i)), tb.planes, nil)
			tb.buckets[h] = append(tb.buckets[h], int32(i))
		}
	}
	return idx
}

// N returns the database size.
func (x *Index) N() int { return x.n }

// Bits returns the code width per table.
func (x *Index) Bits() int { return x.bits }

// Tables returns the number of hash tables.
func (x *Index) Tables() int { return len(x.tables) }

func (x *Index) row(i int32) []float32 { return x.data[int(i)*x.dim : (int(i)+1)*x.dim] }

// hashWithMargins computes the hyperplane code of v; if margins is
// non-nil it must have len(planes) capacity and receives |dot|, the
// distance-to-hyperplane proxies used to order probe perturbations.
func hashWithMargins(v []float32, planes [][]float32, margins []float64) (uint32, []float64) {
	var h uint32
	for b, p := range planes {
		d := vec.Dot(v, p)
		if d >= 0 {
			h |= 1 << uint(b)
		}
		if margins != nil {
			if d < 0 {
				d = -d
			}
			margins[b] = d
		}
	}
	return h, margins
}

// pert is one perturbation candidate in the multi-probe sequence: the
// set of flipped bits (mask), its total margin cost, and the index into
// the margin-sorted bit order of the highest bit used, which drives the
// shift/extend expansion.
type pert struct {
	cost float64
	mask uint32
	last int
}

// probeSeq generates the first nprobes codes in increasing perturbation
// cost, where flipping bit b costs margins[b] (Lv et al.'s multi-probe
// construction specialized to hyperplane LSH). The base code is always
// first.
func probeSeq(base uint32, margins []float64, nprobes int) []uint32 {
	order := make([]int, len(margins))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return margins[order[i]] < margins[order[j]] })

	out := make([]uint32, 0, nprobes)
	out = append(out, base)
	if nprobes <= 1 || len(margins) == 0 {
		return out
	}
	h := &pertHeap{}
	heap.Push(h, pert{cost: margins[order[0]], mask: 1 << uint(order[0]), last: 0})
	seen := map[uint32]struct{}{base: {}}
	for len(out) < nprobes && h.Len() > 0 {
		p := heap.Pop(h).(pert)
		code := base ^ p.mask
		if _, dup := seen[code]; !dup {
			seen[code] = struct{}{}
			out = append(out, code)
		}
		// Expand: shift the highest bit up, or extend with the next bit.
		if p.last+1 < len(order) {
			nb := order[p.last+1]
			ob := order[p.last]
			shifted := pert{
				cost: p.cost - margins[ob] + margins[nb],
				mask: (p.mask &^ (1 << uint(ob))) | 1<<uint(nb),
				last: p.last + 1,
			}
			extended := pert{
				cost: p.cost + margins[nb],
				mask: p.mask | 1<<uint(nb),
				last: p.last + 1,
			}
			heap.Push(h, shifted)
			heap.Push(h, extended)
		}
	}
	return out
}

type pertHeap []pert

func (h pertHeap) Len() int            { return len(h) }
func (h pertHeap) Less(i, j int) bool  { return h[i].cost < h[j].cost }
func (h pertHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pertHeap) Push(x interface{}) { *h = append(*h, x.(pert)) }
func (h *pertHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Search returns the approximate k nearest neighbors of q.
func (x *Index) Search(q []float32, k int) []topk.Result {
	res, _ := x.SearchStats(q, k)
	return res
}

// SearchStats is Search plus work accounting: HashDims, Probes,
// LeafScans (the probed buckets that existed), DistEvals, Dims and
// HeapOps (the perturbation heap's probe generation).
func (x *Index) SearchStats(q []float32, k int) ([]topk.Result, knn.Stats) {
	sel := topk.New(k)
	var st knn.Stats
	seen := make(map[int32]struct{})
	margins := make([]float64, x.bits)
	for t := range x.tables {
		tb := &x.tables[t]
		h, _ := hashWithMargins(q, tb.planes, margins)
		st.HashDims += x.bits * x.dim
		probes := probeSeq(h, margins, x.Probes)
		st.HeapOps += len(probes)
		for _, code := range probes {
			st.Probes++
			bucket, ok := tb.buckets[code]
			if !ok {
				continue
			}
			st.LeafScans++
			for _, id := range bucket {
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				d := vec.SquaredL2(q, x.row(id))
				st.DistEvals++
				st.Dims += x.dim
				sel.Push(int(id), d)
			}
		}
	}
	return sel.Results(), st
}
