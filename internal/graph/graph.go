// Package graph implements an HNSW-style graph-traversal ANN index
// (Malkov & Yashunin's hierarchical navigable small world), the modern
// high-recall engine the NDSEARCH paper (arXiv:2312.03141) maps onto
// near-data hardware: best-first traversal decomposes into memory-bound
// neighbor-list fetches plus a batched distance kernel, exactly the
// shape of the SSAM data path.
//
// Construction is fully deterministic for a fixed Params.Seed: layer
// assignment draws from a seeded RNG, inserts proceed in id order, and
// every heap and neighbor-selection step breaks distance ties by
// ascending id. Search is read-only over the built adjacency and is
// safe for any number of concurrent callers; per-query state (visited
// marks, both traversal heaps, the extraction buffer) lives in a
// pooled scratch so the hot path allocates nothing after warm-up.
// Because traversal order depends only on the adjacency and the query,
// serial and concurrent searches of the same built index return
// bit-identical results.
package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Params configures graph construction and the default search beam.
type Params struct {
	// M bounds the neighbor count per node on layers above the base
	// (the base layer allows 2M). Default 16.
	M int
	// EfConstruction is the candidate-beam width during insertion;
	// larger builds a higher-quality graph more slowly. Default 100.
	EfConstruction int
	// EfSearch is the default query-time beam width (Index.EfSearch is
	// the live knob). Default 64.
	EfSearch int
	// Seed drives layer assignment; builds with equal seeds (and equal
	// data) produce identical adjacency. Default 1.
	Seed int64
}

// DefaultParams returns the customary HNSW settings.
func DefaultParams() Params {
	return Params{M: 16, EfConstruction: 100, EfSearch: 64, Seed: 1}
}

func (p Params) fill() Params {
	if p.M <= 0 {
		p.M = 16
	}
	if p.EfConstruction <= 0 {
		p.EfConstruction = 100
	}
	if p.EfSearch <= 0 {
		p.EfSearch = 64
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// maxLevelCap bounds layer assignment so a pathological RNG draw
// cannot build an absurdly tall tower.
const maxLevelCap = 30

// cd is one traversal candidate. Ordering is always the total order
// (ascending distance, ties by ascending id), the same order the topk
// package uses, so results are deterministic and merge-compatible.
type cd struct {
	d  float64
	id int32
}

// closer reports whether a precedes b under the total order.
func closer(a, b cd) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	return a.id < b.id
}

// node is one vector's adjacency: friends[l] lists its neighbors on
// layer l, for 0 <= l <= level.
type node struct {
	level   int32
	friends [][]int32
}

// Index is a built HNSW-style graph over a float32 database
// (Euclidean metric, squared distances like every engine here).
type Index struct {
	data []float32
	dim  int
	n    int
	m    int     // degree bound, layers >= 1
	m0   int     // degree bound, base layer (2M)
	ml   float64 // level multiplier 1/ln(M)
	efC  int

	entry    int32
	maxLayer int
	nodes    []node

	// EfSearch is the query-time beam width used by Search; sweeping it
	// trades accuracy for throughput (the graph analogue of Checks).
	EfSearch int

	pool sync.Pool // *scratch
}

// Build constructs the graph over a flattened row-major database.
// Construction is single-threaded and deterministic in p.Seed.
func Build(data []float32, dim int, p Params) *Index {
	if dim <= 0 || len(data)%dim != 0 {
		panic("graph: data length not a multiple of dim")
	}
	n := len(data) / dim
	if n == 0 {
		panic("graph: empty database")
	}
	p = p.fill()
	g := &Index{
		data:     data,
		dim:      dim,
		n:        n,
		m:        p.M,
		m0:       2 * p.M,
		ml:       1 / math.Log(float64(p.M)),
		efC:      p.EfConstruction,
		EfSearch: p.EfSearch,
		nodes:    make([]node, n),
	}
	if p.M == 1 {
		g.ml = 1 // log(1) = 0; keep towers short instead of infinite
	}
	g.pool.New = func() any {
		return &scratch{visited: make([]uint32, g.n)}
	}
	rng := rand.New(rand.NewSource(p.Seed))
	sc := g.getScratch()
	var st knn.Stats // build-time work, discarded
	for i := 0; i < n; i++ {
		g.insert(sc, int32(i), g.randLevel(rng), &st)
	}
	g.putScratch(sc)
	return g
}

// randLevel draws a geometric layer assignment (the HNSW exponential
// decay) from the build RNG.
func (g *Index) randLevel(rng *rand.Rand) int {
	l := int(-math.Log(1-rng.Float64()) * g.ml)
	if l > maxLevelCap {
		l = maxLevelCap
	}
	return l
}

// N returns the database size.
func (g *Index) N() int { return g.n }

// Dim returns the vector dimensionality.
func (g *Index) Dim() int { return g.dim }

// M returns the per-layer degree bound.
func (g *Index) M() int { return g.m }

// MaxLayer returns the top layer of the built graph.
func (g *Index) MaxLayer() int { return g.maxLayer }

// Entry returns the global entry point (the top-layer node).
func (g *Index) Entry() int { return int(g.entry) }

// Level returns node i's top layer.
func (g *Index) Level(i int) int { return int(g.nodes[i].level) }

// Neighbors returns node i's adjacency on layer l as a read-only view
// (nil when the node does not reach layer l). Exposed for the device
// mapping and for determinism tests.
func (g *Index) Neighbors(i, l int) []int32 {
	nd := &g.nodes[i]
	if l < 0 || l > int(nd.level) {
		return nil
	}
	return nd.friends[l]
}

// Edges returns the total directed edge count, a cheap structural
// fingerprint used by tests and /statsz-style introspection.
func (g *Index) Edges() int {
	total := 0
	for i := range g.nodes {
		for _, fl := range g.nodes[i].friends {
			total += len(fl)
		}
	}
	return total
}

func (g *Index) row(i int32) []float32 {
	return g.data[int(i)*g.dim : (int(i)+1)*g.dim]
}

func (g *Index) capAt(layer int) int {
	if layer == 0 {
		return g.m0
	}
	return g.m
}

// insert adds node id at the given top layer (ids must arrive in
// order; Build guarantees it).
func (g *Index) insert(sc *scratch, id int32, level int, st *knn.Stats) {
	nd := &g.nodes[id]
	nd.level = int32(level)
	nd.friends = make([][]int32, level+1)
	for l := range nd.friends {
		nd.friends[l] = make([]int32, 0, g.capAt(l))
	}
	if id == 0 {
		g.entry = 0
		g.maxLayer = level
		return
	}
	q := g.row(id)
	ep := g.entry
	for l := g.maxLayer; l > level; l-- {
		ep = g.greedy(q, ep, l, st)
	}
	top := level
	if top > g.maxLayer {
		top = g.maxLayer
	}
	for l := top; l >= 0; l-- {
		cands := g.searchLayer(sc, q, ep, g.efC, l, st)
		chosen := g.selectNeighbors(cands, g.m) // M even on the base layer, per the paper
		for _, nb := range chosen {
			g.linkNew(id, nb, l)
			g.linkBack(nb, id, l)
		}
		if len(cands) > 0 {
			ep = cands[0].id
		}
	}
	if level > g.maxLayer {
		g.maxLayer = level
		g.entry = id
	}
}

// linkNew appends a neighbor to the just-inserted node (its list can
// hold at most M selected neighbors, under every layer cap).
func (g *Index) linkNew(from, to int32, layer int) {
	nd := &g.nodes[from]
	nd.friends[layer] = append(nd.friends[layer], to)
}

// linkBack adds the reverse edge, re-selecting the neighbor list with
// the diversity heuristic when it would exceed the layer's cap.
func (g *Index) linkBack(from, to int32, layer int) {
	nd := &g.nodes[from]
	fl := nd.friends[layer]
	cap := g.capAt(layer)
	if len(fl) < cap {
		nd.friends[layer] = append(fl, to)
		return
	}
	base := g.row(from)
	cands := make([]cd, 0, len(fl)+1)
	for _, f := range fl {
		cands = append(cands, cd{vec.SquaredL2(base, g.row(f)), f})
	}
	cands = append(cands, cd{vec.SquaredL2(base, g.row(to)), to})
	sort.Slice(cands, func(i, j int) bool { return closer(cands[i], cands[j]) })
	chosen := g.selectNeighbors(cands, cap)
	nd.friends[layer] = append(fl[:0], chosen...)
}

// selectNeighbors is the HNSW diversity heuristic (Algorithm 4 with
// keepPruned): walk candidates closest-first, keep one only if it is
// closer to the base vector than to every already-kept neighbor, then
// backfill with the closest rejected candidates. cands must be sorted
// ascending under the total order.
func (g *Index) selectNeighbors(cands []cd, m int) []int32 {
	if len(cands) <= m {
		out := make([]int32, len(cands))
		for i, c := range cands {
			out[i] = c.id
		}
		return out
	}
	selected := make([]cd, 0, m)
	var pruned []cd
	for _, c := range cands {
		if len(selected) == m {
			break
		}
		keep := true
		for _, s := range selected {
			if vec.SquaredL2(g.row(c.id), g.row(s.id)) < c.d {
				keep = false
				break
			}
		}
		if keep {
			selected = append(selected, c)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(selected) == m {
			break
		}
		selected = append(selected, c)
	}
	out := make([]int32, len(selected))
	for i, c := range selected {
		out[i] = c.id
	}
	return out
}

// greedy is the upper-layer descent: repeatedly hop to the closest
// neighbor until no neighbor improves (ef=1 best-first).
func (g *Index) greedy(q []float32, ep int32, layer int, st *knn.Stats) int32 {
	cur := cd{vec.SquaredL2(q, g.row(ep)), ep}
	st.DistEvals++
	st.Dims += g.dim
	for {
		friends := g.nodes[cur.id].friends[layer]
		st.Hops++
		st.NeighborFetches += len(friends)
		improved := false
		for _, nb := range friends {
			d := vec.SquaredL2(q, g.row(nb))
			st.DistEvals++
			st.Dims += g.dim
			if closer(cd{d, nb}, cur) {
				cur = cd{d, nb}
				improved = true
			}
		}
		if !improved {
			return cur.id
		}
	}
}

// searchLayer is the ef-bounded best-first search on one layer,
// returning up to ef candidates sorted ascending under the total
// order. The returned slice is owned by sc and valid until the next
// searchLayer call on the same scratch.
func (g *Index) searchLayer(sc *scratch, q []float32, ep int32, ef, layer int, st *knn.Stats) []cd {
	sc.reset()
	sc.visit(ep)
	d0 := vec.SquaredL2(q, g.row(ep))
	st.DistEvals++
	st.Dims += g.dim
	sc.pushCand(cd{d0, ep})
	sc.pushRes(cd{d0, ep})
	st.HeapOps += 2
	for len(sc.cand) > 0 {
		c := sc.popCand()
		st.HeapOps++
		if len(sc.res) == ef && closer(sc.res[0], c) {
			break // best open candidate is worse than the worst result
		}
		st.Hops++
		friends := g.nodes[c.id].friends[layer]
		st.NeighborFetches += len(friends)
		for _, nb := range friends {
			if sc.visited[nb] == sc.epoch {
				continue
			}
			sc.visited[nb] = sc.epoch
			d := vec.SquaredL2(q, g.row(nb))
			st.DistEvals++
			st.Dims += g.dim
			e := cd{d, nb}
			if len(sc.res) < ef {
				sc.pushRes(e)
				sc.pushCand(e)
				st.HeapOps += 2
			} else if closer(e, sc.res[0]) {
				sc.popRes()
				sc.pushRes(e)
				sc.pushCand(e)
				st.HeapOps += 3
			}
		}
	}
	// Drain the bounded max-heap worst-first into out back-to-front so
	// the returned slice is ascending — no sort, no allocation.
	n := len(sc.res)
	if cap(sc.out) < n {
		sc.out = make([]cd, n)
	}
	sc.out = sc.out[:n]
	for i := n - 1; i >= 0; i-- {
		sc.out[i] = sc.popRes()
	}
	return sc.out
}

// Search returns the approximate k nearest neighbors of q using the
// index's EfSearch beam. Safe for concurrent use.
func (g *Index) Search(q []float32, k int) []topk.Result {
	res, _ := g.SearchStats(q, k)
	return res
}

// SearchStats is Search plus traversal work accounting: Hops (nodes
// whose neighbour lists were expanded), NeighborFetches (adjacency
// entries read), DistEvals, Dims and HeapOps (candidate and result heap
// pushes and pops). ssamdev.GraphIndex prices the same record on the
// device: NeighborFetches as vault reads, DistEvals on the distance
// kernel.
func (g *Index) SearchStats(q []float32, k int) ([]topk.Result, knn.Stats) {
	return g.SearchEfStatsSpan(q, k, g.EfSearch, nil)
}

// SearchStatsSpan is SearchStats recording the traversal as children
// of sp: a "descend" span for the upper-layer hops and a "base" span
// for the layer-0 beam search, each tagged with its hop and
// distance-eval counts. A nil span is the untraced fast path.
func (g *Index) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]topk.Result, knn.Stats) {
	return g.SearchEfStatsSpan(q, k, g.EfSearch, sp)
}

// SearchEf is Search with an explicit beam width (ef < k is raised to
// k), leaving EfSearch untouched — the sweep-friendly entry point.
func (g *Index) SearchEf(q []float32, k, ef int) []topk.Result {
	res, _ := g.SearchEfStats(q, k, ef)
	return res
}

// SearchEfStats is SearchEf plus traversal work accounting.
func (g *Index) SearchEfStats(q []float32, k, ef int) ([]topk.Result, knn.Stats) {
	return g.SearchEfStatsSpan(q, k, ef, nil)
}

// SearchEfStatsSpan is the full search entry point: explicit beam
// width, work accounting, and traversal spans under sp.
func (g *Index) SearchEfStatsSpan(q []float32, k, ef int, sp *obs.Span) ([]topk.Result, knn.Stats) {
	if len(q) != g.dim {
		panic(fmt.Sprintf("graph: query dim %d, want %d", len(q), g.dim))
	}
	if k <= 0 {
		panic("graph: k must be positive")
	}
	if ef < k {
		ef = k
	}
	var st knn.Stats
	var dsp *obs.Span
	if sp != nil { // guard: building the variadic tags would allocate
		dsp = sp.Start("descend", obs.Tag{Key: "layers", Value: g.maxLayer})
	}
	ep := g.entry
	for l := g.maxLayer; l >= 1; l-- {
		ep = g.greedy(q, ep, l, &st)
	}
	if dsp != nil {
		dsp.SetTag("hops", st.Hops)
		dsp.SetTag("dist_evals", st.DistEvals)
		dsp.End()
	}
	descend := st

	var bsp *obs.Span
	if sp != nil {
		bsp = sp.Start("base", obs.Tag{Key: "ef", Value: ef})
	}
	sc := g.getScratch()
	out := g.searchLayer(sc, q, ep, ef, 0, &st)
	if len(out) > k {
		out = out[:k]
	}
	res := make([]topk.Result, len(out))
	for i, c := range out {
		res[i] = topk.Result{ID: int(c.id), Dist: c.d}
	}
	g.putScratch(sc)
	if bsp != nil {
		bsp.SetTag("hops", st.Hops-descend.Hops)
		bsp.SetTag("dist_evals", st.DistEvals-descend.DistEvals)
		bsp.End()
	}
	return res, st
}

// --- pooled per-query scratch ---

// scratch holds one search's mutable state: an epoch-versioned visited
// array (O(1) reset), the candidate min-heap, the bounded result
// max-heap, and the extraction buffer. Reused via Index.pool so the
// steady-state hot path performs no allocations.
type scratch struct {
	visited []uint32
	epoch   uint32
	cand    []cd // min-heap under closer
	res     []cd // max-heap under closer (root = worst retained)
	out     []cd
}

func (sc *scratch) reset() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale marks could alias, clear once
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}
	sc.cand = sc.cand[:0]
	sc.res = sc.res[:0]
}

func (sc *scratch) visit(id int32) { sc.visited[id] = sc.epoch }

func (sc *scratch) pushCand(e cd) {
	sc.cand = append(sc.cand, e)
	i := len(sc.cand) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(sc.cand[i], sc.cand[p]) {
			break
		}
		sc.cand[i], sc.cand[p] = sc.cand[p], sc.cand[i]
		i = p
	}
}

func (sc *scratch) popCand() cd {
	h := sc.cand
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	sc.cand = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && closer(h[l], h[small]) {
			small = l
		}
		if r < n && closer(h[r], h[small]) {
			small = r
		}
		if small == i {
			return top
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

func (sc *scratch) pushRes(e cd) {
	sc.res = append(sc.res, e)
	i := len(sc.res) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !closer(sc.res[p], sc.res[i]) {
			break
		}
		sc.res[i], sc.res[p] = sc.res[p], sc.res[i]
		i = p
	}
}

func (sc *scratch) popRes() cd {
	h := sc.res
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	sc.res = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && closer(h[big], h[l]) {
			big = l
		}
		if r < n && closer(h[big], h[r]) {
			big = r
		}
		if big == i {
			return top
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

func (g *Index) getScratch() *scratch { return g.pool.Get().(*scratch) }
func (g *Index) putScratch(sc *scratch) {
	g.pool.Put(sc)
}
