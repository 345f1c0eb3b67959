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
	"sync"

	"ssam/internal/obs"
	"ssam/internal/tier"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Searcher is the interface satisfied by every kNN engine and index in
// this repository: exact linear engines, kd-tree forests, hierarchical
// k-means trees, and multi-probe LSH.
type Searcher interface {
	// Search returns the k nearest database ids to q, closest first.
	Search(q []float32, k int) []topk.Result
}

// Stats records the work performed by a query, the raw material for
// the Table I instruction-mix characterization. All counters except
// PQKept are partition-independent: a vault-parallel scan reports the
// same DistEvals, Dims, and PQInserts as a serial scan of the same
// database. PQKept may exceed the serial value under vault parallelism
// because each vault-local selector bounds against only its own slice.
type Stats struct {
	DistEvals int // full distance computations
	Dims      int // total vector dimensions touched by distance math
	PQInserts int // candidate offers to the top-k structure
	// PQKept is the offers that were admitted. On the quantized
	// engine's ADC pass, which keeps candidates in a reservoir and not
	// a heap, it is the offers that passed the running bound — every
	// one until the first R have set a bound, then those ranking before
	// the R-th best as of the last compaction. That is more than a heap
	// would admit (its bound tightens on every admission) and, like the
	// heap's count, a function of the partition alone, not of timing.
	PQKept int
	// TableBuilds and CodeEvals account for the product-quantized
	// engine (pq.go): ADC lookup-table constructions and code-word
	// distance evaluations. A code eval reads M bytes and does M table
	// adds instead of a full distance computation, so it is counted
	// here rather than in DistEvals.
	TableBuilds int
	CodeEvals   int
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
	if other.Seq > s.Seq {
		s.Seq = other.Seq
	}
}

// corpus is what the exact and the quantized scan both hold of the rows
// they search: where they sit (rows.go), their shape and metric, and
// how a scan partitions them.
type corpus struct {
	src         rowSource
	dim         int
	n           int
	metric      vec.Metric
	vaults      int // scan partitions, within a query and within a batch
	serialBelow int // resident rows scan serially below this size
}

// N returns the database size.
func (c *corpus) N() int { return c.n }

// Dim returns the vector dimensionality.
func (c *corpus) Dim() int { return c.dim }

// Metric returns the scan's distance metric.
func (c *corpus) Metric() vec.Metric { return c.metric }

// Vaults returns the partition count: the vault count, or for an exact
// scan over a store its page count.
func (c *corpus) Vaults() int { return c.vaults }

// SetSerialThreshold overrides the size (rows; for the exact scan, rows
// times queries) below which a call over resident rows scans serially
// regardless of the vault count (default DefaultSerialThreshold). Zero
// forces the vault path for any size; tests use it to exercise vault
// parallelism on small datasets.
func (c *corpus) SetSerialThreshold(n int) { c.serialBelow = n }

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
	return &ExactScan{corpus{src: paged{store}, dim: store.Dim(), n: store.Rows(), metric: metric, vaults: store.Vaults()}}
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
	t := vec.NewTile(s.metric, qs)
	store, dim := s.src.pages(), s.dim
	scan := func(v, lo, hi int, vsp *obs.Span) ([][]topk.Result, Stats, error) {
		if store != nil {
			store.Prefetch(v + 1) // read the next page while this one scans
		}
		rows, release, err := s.src.pin(v, lo, hi, vsp)
		if err != nil {
			return nil, Stats{}, err
		}
		ts := NewTileScan(t, k)
		for i, off := lo, 0; i < hi; i, off = i+1, off+dim {
			ts.Offer(i, rows[off:off+dim])
		}
		res, st := ts.Results() // scores the rows still buffered: only then may the block go
		release()
		return res, st, nil
	}
	if store == nil && (s.vaults == 1 || s.n*len(qs) < s.serialBelow) {
		return scan(0, 0, s.n, nil)
	}
	parts, st, err := fanVaults(s.n, s.vaults, len(qs), store != nil, sp, scan)
	if err != nil {
		return nil, Stats{}, err
	}
	return MergeVaults(k, len(qs), parts), st, nil
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
type Engine struct {
	ExactScan
	data []float32
}

// NewEngine creates a linear engine over a flattened row-major
// database. workers <= 0 selects GOMAXPROCS. The vault count follows
// workers (capped at MaxVaults); use NewEngineVaults to set it
// independently.
func NewEngine(data []float32, dim int, metric vec.Metric, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return NewEngineVaults(data, dim, metric, workers, min(workers, MaxVaults))
}

// NewEngineVaults is NewEngine with an explicit vault count: the
// database is split into vaults contiguous slices scanned concurrently
// (vaults <= 0 selects DefaultVaults, values above MaxVaults clamp to
// it). The vaults are the engine's only parallelism — a batch walks
// them once for all its queries — so the workers argument, kept for
// the constructor pair's callers, is unused.
func NewEngineVaults(data []float32, dim int, metric vec.Metric, _, vaults int) *Engine {
	if dim <= 0 || len(data)%dim != 0 {
		panic("knn: data length not a multiple of dim")
	}
	return &Engine{data: data, ExactScan: ExactScan{corpus{
		src:         slab{data, dim},
		dim:         dim,
		n:           len(data) / dim,
		metric:      metric,
		vaults:      ResolveVaults(vaults),
		serialBelow: DefaultSerialThreshold,
	}}}
}

// Row returns database vector i.
func (e *Engine) Row(i int) []float32 { return e.data[i*e.dim : (i+1)*e.dim] }

// Search scans the whole database for the k nearest neighbors of q,
// partitioning the scan across the engine's vaults.
func (e *Engine) Search(q []float32, k int) []topk.Result {
	res, _ := e.SearchStats(q, k)
	return res
}

// SearchStats is Search plus work accounting.
func (e *Engine) SearchStats(q []float32, k int) ([]topk.Result, Stats) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of sp
// per scanned slice (sp may be nil). Results are bit-identical to a
// serial scan at any vault count: ids, order, and distances. A single
// query is a batch of one.
func (e *Engine) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]topk.Result, Stats) {
	out, st := e.SearchBatchSpan([][]float32{q}, k, sp)
	return out[0], st
}

// SearchBatch answers every query of qs in one query-tiled scan (Run):
// out[i] is exactly Search(qs[i], k).
func (e *Engine) SearchBatch(qs [][]float32, k int) [][]topk.Result {
	out, _ := e.SearchBatchSpan(qs, k, nil)
	return out
}

// SearchBatchSpan is SearchBatch plus work accounting and Run's spans.
func (e *Engine) SearchBatchSpan(qs [][]float32, k int, sp *obs.Span) ([][]topk.Result, Stats) {
	out, st, err := e.Run(qs, k, sp)
	if err != nil {
		panic(err) // resident rows always read: this is a query of the wrong width, the caller's bug
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

// Batch fans queries out over workers goroutines (workers <= 0 selects
// GOMAXPROCS), preserving order. search must be safe for concurrent
// use. It serves the engines that have no query tile: Engine's batches
// share one scan instead.
func Batch(qs [][]float32, k, workers int, search func([]float32, int) []topk.Result) [][]topk.Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([][]topk.Result, len(qs))
	if workers <= 1 || len(qs) == 1 {
		for i, q := range qs {
			out[i] = search(q, k)
		}
		return out
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = search(qs[i], k)
			}
		}()
	}
	for i := range qs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
