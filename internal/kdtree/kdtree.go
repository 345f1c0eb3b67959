// Package kdtree implements the randomized kd-tree forest used by
// FLANN and characterized in Section II-C of the SSAM paper: each tree
// cuts the dataset on a randomly chosen dimension among those with the
// highest variance, leaves hold buckets of similar vectors, and
// queries traverse best-bin-first with a bounded number of additional
// bucket checks ("a user-specified bound typically limits the number
// of additional buckets visited when backtracking").
package kdtree

import (
	"container/heap"
	"math/rand"
	"sort"

	"ssam/internal/knn"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Params configures forest construction and query behavior.
type Params struct {
	NumTrees int   // parallel randomized trees (FLANN default 4)
	LeafSize int   // max vectors per leaf bucket
	TopDims  int   // cut dimension drawn among this many top-variance dims
	Seed     int64 // construction randomness
	// GlobalCutDims, when non-empty, supplies precomputed
	// high-variance dimensions (e.g. from the SSAM variance-scan
	// offload, Section VI-B): the builder draws cut dimensions from
	// this list instead of estimating per-subset variance, which skips
	// the per-node variance passes entirely. The cut value is still
	// the subset mean on the chosen dimension.
	GlobalCutDims []int
}

// DefaultParams mirrors FLANN's customary settings.
func DefaultParams() Params {
	return Params{NumTrees: 4, LeafSize: 16, TopDims: 5, Seed: 1}
}

type node struct {
	cutDim int
	cutVal float32
	left   int32 // child node index, -1 for leaf
	right  int32
	start  int32 // leaf: range into the tree's permuted id array
	end    int32
}

type tree struct {
	nodes []node
	ids   []int32
}

// Forest is a built randomized kd-tree index over a float32 database.
type Forest struct {
	data  []float32
	dim   int
	n     int
	trees []tree
	// Checks bounds the number of database vectors scored per query;
	// sweeping it trades accuracy for throughput (Fig. 2).
	Checks int
}

// Build constructs a forest over the flattened row-major database.
func Build(data []float32, dim int, p Params) *Forest {
	if dim <= 0 || len(data)%dim != 0 {
		panic("kdtree: data length not a multiple of dim")
	}
	if p.NumTrees <= 0 {
		p.NumTrees = 1
	}
	if p.LeafSize <= 0 {
		p.LeafSize = 16
	}
	if p.TopDims <= 0 {
		p.TopDims = 5
	}
	if p.TopDims > dim {
		p.TopDims = dim
	}
	f := &Forest{data: data, dim: dim, n: len(data) / dim, Checks: 32 * p.LeafSize}
	rng := rand.New(rand.NewSource(p.Seed))
	f.trees = make([]tree, p.NumTrees)
	for t := range f.trees {
		ids := make([]int32, f.n)
		for i := range ids {
			ids[i] = int32(i)
		}
		tr := &f.trees[t]
		tr.ids = ids
		b := &builder{
			f: f, tr: tr,
			rng:      rand.New(rand.NewSource(rng.Int63())),
			leafSize: p.LeafSize, topDims: p.TopDims,
			globalDims: p.GlobalCutDims,
		}
		b.build(0, int32(f.n))
	}
	return f
}

// N returns the database size.
func (f *Forest) N() int { return f.n }

// NumTrees returns the number of randomized trees.
func (f *Forest) NumTrees() int { return len(f.trees) }

func (f *Forest) row(i int32) []float32 { return f.data[int(i)*f.dim : (int(i)+1)*f.dim] }

type builder struct {
	f          *Forest
	tr         *tree
	rng        *rand.Rand
	leafSize   int
	topDims    int
	globalDims []int
}

// build recursively partitions ids[start:end) and returns the node id.
func (b *builder) build(start, end int32) int32 {
	idx := int32(len(b.tr.nodes))
	b.tr.nodes = append(b.tr.nodes, node{left: -1, right: -1, start: start, end: end})
	if end-start <= int32(b.leafSize) {
		return idx
	}
	cutDim, cutVal, ok := b.chooseCut(start, end)
	if !ok { // degenerate: all points identical on candidate dims
		return idx
	}
	mid := b.partition(start, end, cutDim, cutVal)
	if mid == start || mid == end { // unbalanced cut; keep as leaf
		return idx
	}
	left := b.build(start, mid)
	right := b.build(mid, end)
	n := &b.tr.nodes[idx]
	n.cutDim, n.cutVal, n.left, n.right = cutDim, cutVal, left, right
	return idx
}

// chooseCut samples a dimension among the topDims highest-variance
// dimensions of the subset and cuts at its mean, FLANN-style. With
// GlobalCutDims it instead samples from the precomputed list and only
// scans for the mean on that one dimension.
func (b *builder) chooseCut(start, end int32) (dim int, val float32, ok bool) {
	f := b.f
	if len(b.globalDims) > 0 {
		dim = b.globalDims[b.rng.Intn(len(b.globalDims))]
		var sum float64
		var cnt float64
		for i := start; i < end; i++ {
			sum += float64(f.row(b.tr.ids[i])[dim])
			cnt++
		}
		mean := float32(sum / cnt)
		// Degenerate when every value equals the mean.
		for i := start; i < end; i++ {
			if f.row(b.tr.ids[i])[dim] != mean {
				return dim, mean, true
			}
		}
		return 0, 0, false
	}
	mean := make([]float64, f.dim)
	m2 := make([]float64, f.dim)
	// Subsample large subsets for variance estimation.
	step := int32(1)
	if end-start > 256 {
		step = (end - start) / 256
	}
	var cnt float64
	for i := start; i < end; i += step {
		row := f.row(b.tr.ids[i])
		for d, v := range row {
			mean[d] += float64(v)
			m2[d] += float64(v) * float64(v)
		}
		cnt++
	}
	type dv struct {
		d int
		v float64
	}
	vars := make([]dv, f.dim)
	for d := range vars {
		mu := mean[d] / cnt
		vars[d] = dv{d, m2[d]/cnt - mu*mu}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].v > vars[j].v })
	pick := vars[b.rng.Intn(b.topDims)]
	if pick.v <= 0 {
		return 0, 0, false
	}
	return pick.d, float32(mean[pick.d] / cnt), true
}

// partition rearranges ids[start:end) so vectors with row[dim] < val
// precede the rest, returning the split point.
func (b *builder) partition(start, end int32, dim int, val float32) int32 {
	ids := b.tr.ids
	i := start
	for j := start; j < end; j++ {
		if b.f.row(ids[j])[dim] < val {
			ids[i], ids[j] = ids[j], ids[i]
			i++
		}
	}
	return i
}

// branchEntry is a deferred branch in best-bin-first search.
type branchEntry struct {
	tree  int
	node  int32
	bound float64 // lower bound on distance to any point in the branch
}

type branchHeap []branchEntry

func (h branchHeap) Len() int            { return len(h) }
func (h branchHeap) Less(i, j int) bool  { return h[i].bound < h[j].bound }
func (h branchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *branchHeap) Push(x interface{}) { *h = append(*h, x.(branchEntry)) }
func (h *branchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Search returns the approximate k nearest neighbors of q, visiting at
// most f.Checks database vectors across all trees.
func (f *Forest) Search(q []float32, k int) []topk.Result {
	res, _ := f.SearchStats(q, k)
	return res
}

// SearchStats is Search plus work accounting: NodeVisits, LeafScans,
// DistEvals, Dims and HeapOps (backtracking heap pushes and pops).
func (f *Forest) SearchStats(q []float32, k int) ([]topk.Result, knn.Stats) {
	sel := topk.New(k)
	var st knn.Stats
	visited := make(map[int32]struct{}, f.Checks*2)
	var h branchHeap
	for t := range f.trees {
		f.descend(t, 0, q, sel, &h, visited, &st)
	}
	for len(h) > 0 && st.DistEvals < f.Checks {
		e := heap.Pop(&h).(branchEntry)
		st.HeapOps++
		if b, ok := sel.Bound(); ok && e.bound >= b {
			continue
		}
		f.descend(e.tree, e.node, q, sel, &h, visited, &st)
	}
	return sel.Results(), st
}

// descend walks from node to a leaf, pushing the opposite branches on
// the backtracking heap, then scans the leaf bucket.
func (f *Forest) descend(t int, ni int32, q []float32, sel *topk.Selector, h *branchHeap, visited map[int32]struct{}, st *knn.Stats) {
	tr := &f.trees[t]
	for {
		n := &tr.nodes[ni]
		if n.left < 0 {
			st.LeafScans++
			for _, id := range tr.ids[n.start:n.end] {
				if _, seen := visited[id]; seen {
					continue
				}
				visited[id] = struct{}{}
				d := vec.SquaredL2(q, f.row(id))
				st.DistEvals++
				st.Dims += f.dim
				sel.Push(int(id), d)
			}
			return
		}
		st.NodeVisits++
		diff := float64(q[n.cutDim]) - float64(n.cutVal)
		near, far := n.left, n.right
		if diff >= 0 {
			near, far = n.right, n.left
		}
		heap.Push(h, branchEntry{tree: t, node: far, bound: diff * diff})
		st.HeapOps++
		ni = near
	}
}
