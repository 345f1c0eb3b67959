// Package kmeans implements the hierarchical k-means tree index of
// FLANN, the second approximate-kNN structure characterized in
// Section II-C of the SSAM paper: "the dataset is partitioned
// recursively based on k-means cluster assignments to form a tree data
// structure ... Backtracking is also used to expand the search space
// and search 'close by' buckets."
package kmeans

import (
	"container/heap"
	"math/rand"

	"ssam/internal/knn"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Params configures tree construction.
type Params struct {
	Branching  int   // children per interior node (FLANN default 32)
	LeafSize   int   // max vectors per leaf bucket
	Iterations int   // Lloyd iterations per split
	Seed       int64 // construction randomness
}

// DefaultParams mirrors FLANN's customary settings, with a smaller
// branching factor suited to the scaled datasets.
func DefaultParams() Params {
	return Params{Branching: 16, LeafSize: 32, Iterations: 8, Seed: 1}
}

type node struct {
	centroid []float32
	children []int32 // empty for leaves
	start    int32   // leaf range into ids
	end      int32
}

// Tree is a built hierarchical k-means index.
type Tree struct {
	data  []float32
	dim   int
	n     int
	nodes []node
	ids   []int32
	// Checks bounds the number of database vectors scored per query.
	Checks int
}

// Build constructs the tree over a flattened row-major database.
func Build(data []float32, dim int, p Params) *Tree {
	if dim <= 0 || len(data)%dim != 0 {
		panic("kmeans: data length not a multiple of dim")
	}
	if p.Branching < 2 {
		p.Branching = 2
	}
	if p.LeafSize <= 0 {
		p.LeafSize = 32
	}
	if p.Iterations <= 0 {
		p.Iterations = 5
	}
	t := &Tree{data: data, dim: dim, n: len(data) / dim}
	t.Checks = 16 * p.LeafSize
	t.ids = make([]int32, t.n)
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	b := &builder{t: t, p: p, rng: rand.New(rand.NewSource(p.Seed))}
	root := centroidOf(t, 0, int32(t.n))
	b.build(root, 0, int32(t.n))
	return t
}

// N returns the database size.
func (t *Tree) N() int { return t.n }

func (t *Tree) row(i int32) []float32 { return t.data[int(i)*t.dim : (int(i)+1)*t.dim] }

func centroidOf(t *Tree, start, end int32) []float32 {
	c := make([]float64, t.dim)
	for i := start; i < end; i++ {
		for d, v := range t.row(t.ids[i]) {
			c[d] += float64(v)
		}
	}
	out := make([]float32, t.dim)
	cnt := float64(end - start)
	for d := range out {
		out[d] = float32(c[d] / cnt)
	}
	return out
}

type builder struct {
	t   *Tree
	p   Params
	rng *rand.Rand
}

// build creates the node for ids[start:end) with the given centroid
// and recursively splits it; returns the node index.
func (b *builder) build(centroid []float32, start, end int32) int32 {
	t := b.t
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{centroid: centroid, start: start, end: end})
	if end-start <= int32(b.p.LeafSize) {
		return idx
	}
	kk := b.p.Branching
	if int32(kk) > end-start {
		kk = int(end - start)
	}
	centers, assign, ok := b.lloyd(start, end, kk)
	if !ok {
		return idx // degenerate split: keep as leaf
	}
	// Partition ids by cluster assignment (stable bucketing).
	counts := make([]int32, kk)
	for _, a := range assign {
		counts[a]++
	}
	offsets := make([]int32, kk+1)
	for c := 0; c < kk; c++ {
		offsets[c+1] = offsets[c] + counts[c]
	}
	tmp := make([]int32, end-start)
	cursor := make([]int32, kk)
	copy(cursor, offsets[:kk])
	for i, a := range assign {
		tmp[cursor[a]] = t.ids[start+int32(i)]
		cursor[a]++
	}
	copy(t.ids[start:end], tmp)

	children := make([]int32, 0, kk)
	for c := 0; c < kk; c++ {
		cs, ce := start+offsets[c], start+offsets[c+1]
		if cs == ce {
			continue
		}
		children = append(children, b.build(centers[c], cs, ce))
	}
	if len(children) < 2 {
		// All points in one cluster: splitting made no progress.
		t.nodes = t.nodes[:idx+1]
		n := &t.nodes[idx]
		n.children = nil
		return idx
	}
	t.nodes[idx].children = children
	return idx
}

// lloyd runs k-means over ids[start:end) and returns the centers and
// per-point assignments. ok is false if the split degenerated.
func (b *builder) lloyd(start, end int32, kk int) (centers [][]float32, assign []int32, ok bool) {
	t := b.t
	n := int(end - start)
	centers = make([][]float32, kk)
	// Random distinct seeding.
	perm := b.rng.Perm(n)
	for c := 0; c < kk; c++ {
		centers[c] = append([]float32(nil), t.row(t.ids[start+int32(perm[c])])...)
	}
	assign = make([]int32, n)
	sums := make([][]float64, kk)
	counts := make([]int64, kk)
	for c := range sums {
		sums[c] = make([]float64, t.dim)
	}
	for it := 0; it < b.p.Iterations; it++ {
		changed := false
		for i := 0; i < n; i++ {
			row := t.row(t.ids[start+int32(i)])
			best, bestD := int32(0), vec.SquaredL2(row, centers[0])
			for c := 1; c < kk; c++ {
				if d := vec.SquaredL2(row, centers[c]); d < bestD {
					best, bestD = int32(c), d
				}
			}
			if assign[i] != best || it == 0 {
				changed = true
			}
			assign[i] = best
		}
		if !changed {
			break
		}
		for c := range sums {
			for d := range sums[c] {
				sums[c][d] = 0
			}
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			for d, v := range t.row(t.ids[start+int32(i)]) {
				sums[c][d] += float64(v)
			}
		}
		for c := 0; c < kk; c++ {
			if counts[c] == 0 {
				// Reseed empty cluster on a random point.
				centers[c] = append([]float32(nil), t.row(t.ids[start+int32(b.rng.Intn(n))])...)
				continue
			}
			for d := range centers[c] {
				centers[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
	}
	// Degenerate if every point landed in one cluster.
	first := assign[0]
	for _, a := range assign {
		if a != first {
			return centers, assign, true
		}
	}
	return nil, nil, false
}

type branchEntry struct {
	node  int32
	bound float64
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

// Search returns the approximate k nearest neighbors of q, scoring at
// most t.Checks database vectors.
func (t *Tree) Search(q []float32, k int) []topk.Result {
	res, _ := t.SearchStats(q, k)
	return res
}

// SearchStats is Search plus work accounting: NodeVisits,
// CentroidEvals, LeafScans, DistEvals, Dims (centroids' included) and
// HeapOps.
func (t *Tree) SearchStats(q []float32, k int) ([]topk.Result, knn.Stats) {
	sel := topk.New(k)
	var st knn.Stats
	var h branchHeap
	t.descend(0, q, sel, &h, &st)
	for len(h) > 0 && st.DistEvals < t.Checks {
		e := heap.Pop(&h).(branchEntry)
		st.HeapOps++
		t.descend(e.node, q, sel, &h, &st)
	}
	return sel.Results(), st
}

func (t *Tree) descend(ni int32, q []float32, sel *topk.Selector, h *branchHeap, st *knn.Stats) {
	for {
		n := &t.nodes[ni]
		if len(n.children) == 0 {
			st.LeafScans++
			for _, id := range t.ids[n.start:n.end] {
				d := vec.SquaredL2(q, t.row(id))
				st.DistEvals++
				st.Dims += t.dim
				sel.Push(int(id), d)
			}
			return
		}
		st.NodeVisits++
		best := int32(-1)
		bestD := 0.0
		for _, c := range n.children {
			d := vec.SquaredL2(q, t.nodes[c].centroid)
			st.CentroidEvals++
			st.Dims += t.dim
			if best < 0 || d < bestD {
				if best >= 0 {
					heap.Push(h, branchEntry{node: best, bound: bestD})
					st.HeapOps++
				}
				best, bestD = c, d
			} else {
				heap.Push(h, branchEntry{node: c, bound: d})
				st.HeapOps++
			}
		}
		ni = best
	}
}
