// Package knn implements exact k-nearest-neighbor search by linear
// scan, the baseline every experiment in the SSAM paper builds on
// (Section II: "linear search performance is still valuable since
// higher accuracy targets reduce to linear search"). Engines exist for
// float32, 32-bit fixed-point, and binarized Hamming-space databases.
// Each engine scans vault-parallel within a query (see vault.go) and
// fans out across queries in batched form.
package knn

import (
	"runtime"
	"sync"

	"ssam/internal/obs"
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
	PQKept    int // offers that were admitted
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

// Engine is an exact linear-scan kNN engine over float32 vectors.
type Engine struct {
	data        []float32
	dim         int
	n           int
	metric      vec.Metric
	workers     int // cross-query fan-out width
	vaults      int // intra-query scan partitions
	serialBelow int // scan serially when n is below this
}

// NewEngine creates a linear engine over a flattened row-major
// database. workers <= 0 selects GOMAXPROCS. The intra-query vault
// count follows workers (capped at MaxVaults); use NewEngineVaults to
// set it independently.
func NewEngine(data []float32, dim int, metric vec.Metric, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	v := workers
	if v > MaxVaults {
		v = MaxVaults
	}
	return NewEngineVaults(data, dim, metric, workers, v)
}

// NewEngineVaults is NewEngine with an explicit intra-query vault
// count: the database is split into vaults contiguous slices scanned
// concurrently within each query (vaults <= 0 selects DefaultVaults,
// values above MaxVaults clamp to it). workers <= 0 selects GOMAXPROCS.
func NewEngineVaults(data []float32, dim int, metric vec.Metric, workers, vaults int) *Engine {
	if dim <= 0 || len(data)%dim != 0 {
		panic("knn: data length not a multiple of dim")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		data:        data,
		dim:         dim,
		n:           len(data) / dim,
		metric:      metric,
		workers:     workers,
		vaults:      resolveVaults(vaults),
		serialBelow: DefaultSerialThreshold,
	}
}

// N returns the database size.
func (e *Engine) N() int { return e.n }

// Dim returns the vector dimensionality.
func (e *Engine) Dim() int { return e.dim }

// Metric returns the engine's distance metric.
func (e *Engine) Metric() vec.Metric { return e.metric }

// Vaults returns the intra-query vault count.
func (e *Engine) Vaults() int { return e.vaults }

// SetSerialThreshold overrides the dataset size below which queries
// scan serially regardless of the vault count (default
// DefaultSerialThreshold). Zero forces the vault path for any size;
// tests use it to exercise vault parallelism on small datasets.
func (e *Engine) SetSerialThreshold(n int) { e.serialBelow = n }

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
// serial scan at any vault count: ids, order, and distances.
func (e *Engine) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]topk.Result, Stats) {
	if e.vaults == 1 || e.n < e.serialBelow {
		return e.scanRange(q, k, 0, e.n)
	}
	return scanVaults(e.n, e.vaults, k, sp, func(lo, hi int) ([]topk.Result, Stats) {
		return e.scanRange(q, k, lo, hi)
	})
}

func (e *Engine) scanRange(q []float32, k, lo, hi int) ([]topk.Result, Stats) {
	sel := topk.New(k)
	var st Stats
	for i := lo; i < hi; i++ {
		d := vec.Distance(e.metric, q, e.Row(i))
		st.DistEvals++
		st.Dims += e.dim
		st.PQInserts++
		if sel.Push(i, d) {
			st.PQKept++
		}
	}
	return sel.Results(), st
}

// SearchBatch runs one Search per query. A single query, or fewer
// queries than workers, runs them in turn with vault-parallel scans so
// a short batch still uses the machine; longer batches fan out across
// workers with serial scans, which keeps total parallelism at the
// worker count instead of workers × vaults.
func (e *Engine) SearchBatch(qs [][]float32, k int) [][]topk.Result {
	return e.SearchBatchSpan(qs, k, nil)
}

// SearchBatchSpan is SearchBatch recording "vault" child spans of sp
// for queries that take the vault-parallel path (sp may be nil).
// Queries on the cross-query fan-out path scan serially and record no
// vault spans — per-query parallelism is genuinely absent there.
func (e *Engine) SearchBatchSpan(qs [][]float32, k int, sp *obs.Span) [][]topk.Result {
	if e.vaults > 1 && (len(qs) == 1 || len(qs) < e.workers) {
		out := make([][]topk.Result, len(qs))
		for i, q := range qs {
			out[i], _ = e.SearchStatsSpan(q, k, sp)
		}
		return out
	}
	return Batch(qs, k, e.workers, func(q []float32, k int) []topk.Result {
		res, _ := e.scanRange(q, k, 0, e.n)
		return res
	})
}

// Batch fans queries out over workers goroutines (workers <= 0 selects
// GOMAXPROCS), preserving order. search must be safe for concurrent use.
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
