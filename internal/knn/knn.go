// Package knn implements exact k-nearest-neighbor search by linear
// scan, the baseline every experiment in the SSAM paper builds on
// (Section II: "linear search performance is still valuable since
// higher accuracy targets reduce to linear search"). Engines exist for
// float32, 32-bit fixed-point, and binarized Hamming-space databases.
// Each engine scans vault-parallel within a query (see vault.go); the
// float engine answers a batch in one query-tiled pass over the rows.
package knn

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ssam/internal/obs"
	"ssam/internal/par"
	"ssam/internal/tier"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Stats records the work performed by a query, the raw material for
// the Table I instruction-mix characterization. It is the one work
// record of every engine and index on the host. A vault-parallel scan
// reports the same DistEvals, Dims, and PQInserts as a serial scan of
// the same database. On the float engines PQKept may exceed the serial
// value under vault parallelism, because each vault-local selector
// bounds against only its own slice; on the quantized engine's ADC pass
// every counter is partition-independent, PQKept included.
type Stats struct {
	DistEvals int // full distance computations
	Dims      int // total vector dimensions touched by distance math
	PQInserts int // candidate offers to the top-k structure
	// PQKept is the offers that were admitted: on the float engines,
	// those their selectors took in; on the quantized ADC pass, the rows
	// at or below the pilot's bound (both passes' after a rescan).
	PQKept int
	// TableBuilds and CodeEvals account for the product-quantized
	// engine (pq.go): ADC lookup-table constructions and code-word
	// distance evaluations. A code eval reads M bytes and does M table
	// adds instead of a full distance computation, so it is counted
	// here rather than in DistEvals.
	TableBuilds int
	CodeEvals   int
	// Rescans counts the ADC passes run twice because the pilot's bound
	// kept too few rows (pq.go); the second pass's rows are in CodeEvals.
	Rescans int
	// The index counters: the traversal work of the kd-tree forest, the
	// k-means tree, multi-probe LSH and the graph, which their
	// SearchStats entry points fill and the linear engines leave zero.
	// Table I prices them as scalar instructions (internal/profile), the
	// device's indexed-search model as scalar-unit cycles and vault reads
	// (internal/ssamdev).
	NodeVisits      int // interior tree nodes traversed
	LeafScans       int // leaf buckets or probed LSH buckets scanned
	HeapOps         int // backtracking, probe-generation or beam heap operations
	CentroidEvals   int // k-means centroid distances (not in DistEvals)
	HashDims        int // dimensions touched computing LSH hash codes
	Probes          int // LSH buckets probed, hit or not
	Hops            int // graph nodes whose neighbour lists were expanded
	NeighborFetches int // graph adjacency entries read
	// Seq is the mutation sequence number of the snapshot the query
	// executed against (internal/mutate); 0 for the immutable engines,
	// whose datasets have no generations.
	Seq uint64
}

// Add accumulates other into s. Seq, a generation marker rather than a
// work counter, keeps the newest value seen.
func (s *Stats) Add(other Stats) {
	s.DistEvals += other.DistEvals
	s.Dims += other.Dims
	s.PQInserts += other.PQInserts
	s.PQKept += other.PQKept
	s.TableBuilds += other.TableBuilds
	s.CodeEvals += other.CodeEvals
	s.Rescans += other.Rescans
	s.NodeVisits += other.NodeVisits
	s.LeafScans += other.LeafScans
	s.HeapOps += other.HeapOps
	s.CentroidEvals += other.CentroidEvals
	s.HashDims += other.HashDims
	s.Probes += other.Probes
	s.Hops += other.Hops
	s.NeighborFetches += other.NeighborFetches
	if other.Seq > s.Seq {
		s.Seq = other.Seq
	}
}

// Querier answers one query of a batch, a batch of one, recording its
// spans under sp (nil-safe).
type Querier interface {
	Query(q [][]float32, k int, sp *obs.Span) ([]topk.Result, Stats, error)
}

// EachQuery answers every query of qs with q.Query, in turn on the
// caller's goroutine or on up to GOMAXPROCS goroutines, and sums their
// work. Queries that run in turn record their spans under sp; queries
// fanned out record none, which would interleave. q is a value, copied
// to the goroutines. On error — Query's, or a panic in it — out holds
// the non-nil answers of the queries before failedAt, the first that
// failed, and their work; failedAt is -1 on success.
func EachQuery[Q Querier](qs [][]float32, k int, sp *obs.Span, inTurn bool, q Q) ([][]topk.Result, Stats, int, error) {
	fan, limit := !inTurn && len(qs) > 1, 1
	if fan {
		limit = runtime.GOMAXPROCS(0)
	}
	out := make([][]topk.Result, len(qs))
	var sum struct { // the one variable the goroutines share
		sync.Mutex
		Stats
	}
	if err := par.Each(len(qs), limit, func(i int) (err error) {
		qsp := sp
		if fan {
			qsp = nil
		}
		var st Stats
		out[i], st, err = q.Query(qs[i:i+1], k, qsp)
		sum.Lock()
		sum.Add(st)
		sum.Unlock()
		return err
	}); err != nil {
		// Every query before the failed one has its (non-nil) answer.
		return out, sum.Stats, slices.IndexFunc(out, func(r []topk.Result) bool { return r == nil }), err
	}
	return out, sum.Stats, -1, nil
}

// corpus is what the exact and the quantized scan both hold of the rows
// they search: where they sit (rows.go), their shape and metric, and
// how a scan splits them.
type corpus struct {
	Walk
	src    rowSource
	dim    int
	n      int
	metric vec.Metric
}

// N returns the database size.
func (c *corpus) N() int { return c.n }

// Dim returns the vector dimensionality.
func (c *corpus) Dim() int { return c.dim }

// Metric returns the scan's distance metric.
func (c *corpus) Metric() vec.Metric { return c.metric }

// Store returns the tier store the rows sit in, or nil when they are
// resident.
func (c *corpus) Store() *tier.Store { return c.src.pages() }

// ExactScan is the exact linear scan over float32 rows, wherever they
// sit. Over a resident slab it is Engine's core and cannot fail; over a
// tier store (NewExactScan) every call can return the store's error,
// which is why Run is the only way to search one.
type ExactScan struct{ corpus }

// NewExactScan creates an exact scan over an opened store, one
// partition per page.
func NewExactScan(store *tier.Store, metric vec.Metric) *ExactScan {
	// A store's pages are walked in order, never as one: no threshold.
	return &ExactScan{corpus{Walk: Walk{vaults: store.Vaults()}, src: paged{store}, dim: store.Dim(), n: store.Rows(), metric: metric}}
}

// Run answers every query of qs in one query-tiled scan: each partition
// of the rows is walked once, scoring every row against the whole batch
// (vec.Tile) into one partition-local selector per query, so the
// dataset is read — and over a store, each page pinned — once per
// batch, not once per query. out[i] is what a batch of qs[i] alone
// returns, bit for bit, wherever the rows sit: resident partitions are
// scanned concurrently (as one under the serial threshold), a store's
// pages in order, the next one prefetched. Each partition walked is a
// "vault" child span of sp (nil-safe). The Stats sum over the batch:
// DistEvals, Dims and PQInserts are len(qs) times one query's. An error
// — a query of the wrong width, a page the store could not serve —
// fails the whole batch: the queries share the walk, so no list is
// complete.
func (s *ExactScan) Run(qs [][]float32, k int, sp *obs.Span) ([][]topk.Result, Stats, error) {
	if len(qs) == 0 {
		return [][]topk.Result{}, Stats{}, nil
	}
	for _, q := range qs {
		if err := checkDim(q, s.dim); err != nil {
			return nil, Stats{}, err
		}
	}
	p := exactPass{Split: s.split(s.n), s: s, t: vec.NewTile(s.metric, qs), k: k}
	return WalkVaults(&s.Walk, p, len(qs), s.src.pages() != nil, sp)
}

// exactPass is Run's walk: each partition's rows scored against the
// batch's whole tile into partition-local selectors.
type exactPass struct {
	par.Split
	s *ExactScan
	t *vec.Tile
	k int
}

func (p exactPass) Scan(a, b int, vsp *obs.Span) ([][]topk.Result, Stats, error) {
	if store := p.s.src.pages(); store != nil {
		store.Prefetch(b) // read the next page while this one scans
	}
	lo, hi := p.Bounds(a, b)
	rows, release, err := p.s.src.pin(a, lo, hi, vsp)
	if err != nil {
		return nil, Stats{}, err
	}
	defer release() // after Results has scored the rows still buffered, and on a panic
	ts, dim := NewTileScan(p.t, p.k), p.s.dim
	for i, off := lo, 0; i < hi; i, off = i+1, off+dim {
		ts.Offer(i, rows[off:off+dim])
	}
	res, st := ts.Results()
	return res, st, nil
}

func (p exactPass) Merge(parts [][][]topk.Result) [][]topk.Result {
	return MergeVaults(p.k, p.t.Len(), parts)
}

func checkDim(q []float32, dim int) error {
	if len(q) != dim {
		return fmt.Errorf("knn: query dim %d, want %d", len(q), dim)
	}
	return nil
}

// Engine is an exact linear-scan kNN engine over resident float32
// vectors: an ExactScan that cannot fail, so its searches return no
// error.
type Engine struct{ ExactScan }

// NewEngine creates a linear engine over a flattened row-major
// database, split into vaults contiguous slices scanned concurrently
// (vaults <= 0 selects DefaultVaults, values above MaxVaults clamp to
// it). The vaults are the engine's only parallelism: a batch walks them
// once for all its queries.
func NewEngine(data []float32, dim int, metric vec.Metric, vaults int) *Engine {
	if dim <= 0 || len(data)%dim != 0 {
		panic("knn: data length not a multiple of dim")
	}
	return &Engine{ExactScan{corpus{
		Walk:   NewWalk(vaults),
		src:    slab{data, dim},
		dim:    dim,
		n:      len(data) / dim,
		metric: metric,
	}}}
}

// Search scans the whole database for the k nearest neighbors of q,
// partitioning the scan across the engine's vaults.
func (e *Engine) Search(q []float32, k int) []topk.Result {
	res, _ := e.SearchStats(q, k)
	return res
}

// SearchStats is Search plus work accounting: a batch of one (Run).
// Results are bit-identical to a serial scan at any vault count: ids,
// order, and distances.
func (e *Engine) SearchStats(q []float32, k int) ([]topk.Result, Stats) {
	out, st := e.mustRun([][]float32{q}, k)
	return out[0], st
}

// SearchBatch answers every query of qs in one query-tiled scan (Run):
// out[i] is exactly Search(qs[i], k).
func (e *Engine) SearchBatch(qs [][]float32, k int) [][]topk.Result {
	out, _ := e.mustRun(qs, k)
	return out
}

// mustRun is Run over resident rows, whose only error is a query of the
// wrong width: the caller's bug.
func (e *Engine) mustRun(qs [][]float32, k int) ([][]topk.Result, Stats) {
	out, st, err := e.Run(qs, k, nil)
	if err != nil {
		panic(err)
	}
	return out, st
}

// TileScan is the row loop every exact float scan shares: a prepared
// query tile, the call's selectors, and a buffer of up to a block of
// offered rows. Offer scores rows against the whole tile a block at a
// time (vec.Tile.Block) and offers each to every query's selector, in
// the order given; Results scores what the last block left over a row
// at a time. The rows are slices, so they need not be adjacent: a slab,
// a pinned page, separately allocated rows and scattered re-rank
// candidates all scan through it. One goroutine uses a TileScan.
type TileScan struct {
	sels  *Selectors
	tile  *vec.Tile
	lanes []float64 // the block kernel's working memory
	ids   [vec.BlockRows]int
	rows  [vec.BlockRows][]float32
	n     int // rows buffered
}

// NewTileScan returns a scan of t's queries retaining the k closest
// rows for each.
func NewTileScan(t *vec.Tile, k int) *TileScan {
	return &TileScan{sels: NewSelectors(t.Len(), k, vec.BlockRows), tile: t, lanes: t.Lanes()}
}

// Offer adds row id to the scan. The scan reads row until the block it
// lands in is scored: by the Offer that fills the block, or by Flush.
func (ts *TileScan) Offer(id int, row []float32) {
	ts.ids[ts.n], ts.rows[ts.n] = id, row
	ts.n++
	if ts.n == vec.BlockRows {
		ts.tile.Block(&ts.rows, ts.lanes, ts.sels.Dists)
		ts.sels.Offer(ts.ids[:], len(row))
		ts.n = 0
	}
}

// Flush scores the rows still buffered, so that none offered so far is
// read again: a caller about to give up the memory behind them (a
// pinned page) flushes first.
func (ts *TileScan) Flush() {
	for r := 0; r < ts.n; r++ {
		ts.tile.Row(ts.rows[r], ts.sels.Dists)
		ts.sels.Offer(ts.ids[r:r+1], len(ts.rows[r]))
	}
	ts.n = 0
}

// Results flushes the scan and returns each query's retained
// neighbors, closest first, with the scan's work accounting.
func (ts *TileScan) Results() ([][]topk.Result, Stats) {
	ts.Flush()
	return ts.sels.Results(), ts.sels.Stats
}

// Selectors is the top-k side of a query-tiled scan: one selector per
// query of the call, offered the distances of one or more scanned rows
// together, plus the scan's work accounting. One goroutine uses a
// Selectors; a vault-parallel scan gives each vault its own and reduces
// them with MergeVaults.
type Selectors struct {
	// Dists is the distances of the rows about to be offered, query by
	// query: the scan fills it, then calls Offer with the rows' ids.
	Dists []float64
	Stats Stats
	sels  []*topk.Selector
}

// NewSelectors returns selectors retaining the k closest rows for each
// of queries queries, offered at most rows rows at a time.
func NewSelectors(queries, k, rows int) *Selectors {
	s := &Selectors{Dists: make([]float64, queries*rows), sels: make([]*topk.Selector, queries)}
	for j := range s.sels {
		s.sels[j] = topk.New(k)
	}
	return s
}

// Offer offers rows ids, in that order, to every query's selector: row
// ids[r] is at distance Dists[j*len(ids)+r] from query j. dim is the
// rows' width, for Stats.Dims. The work counters advance once a call,
// by rows times queries.
func (s *Selectors) Offer(ids []int, dim int) {
	n := len(ids)
	for j, sel := range s.sels {
		for r, d := range s.Dists[j*n : (j+1)*n] {
			if sel.Push(ids[r], d) {
				s.Stats.PQKept++
			}
		}
	}
	pairs := n * len(s.sels)
	s.Stats.DistEvals += pairs
	s.Stats.Dims += pairs * dim
	s.Stats.PQInserts += pairs
}

// Results returns each query's retained neighbors, closest first.
func (s *Selectors) Results() [][]topk.Result {
	out := make([][]topk.Result, len(s.sels))
	for j, sel := range s.sels {
		out[j] = sel.Results()
	}
	return out
}

// MergeVaults reduces per-vault results of one call — parts[v][j] is
// vault v's list for query j — to each query's global top-k under the
// total order.
func MergeVaults(k, queries int, parts [][][]topk.Result) [][]topk.Result {
	out := make([][]topk.Result, queries)
	lists := make([][]topk.Result, len(parts))
	for j := range out {
		for v, p := range parts {
			lists[v] = p[j]
		}
		out[j] = topk.MergeSorted(k, lists...)
	}
	return out
}
