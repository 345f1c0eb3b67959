package knn

// Product-quantized approximate linear scan. The engine trades exact
// distances for bandwidth: rows are stored as M-byte PQ codes in
// vault-local, cache-blocked slabs (internal/pq), each query builds
// one M×256 ADC lookup table, and the scan does M table adds per row
// instead of dim float ops. Recall is a configuration knob, not a
// surprise: with Rerank = R the top-R ADC candidates are re-scored
// against the retained float32 vectors under the true metric, and
// R >= n degenerates to the exact linear scan bit-for-bit.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"ssam/internal/obs"
	"ssam/internal/pq"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// PQParams configures a product-quantized engine.
type PQParams struct {
	// M is the subquantizer count (code bytes per row); 0 selects
	// pq.DefaultM. Any 1 <= M <= dim is valid.
	M int
	// Sample is the codebook training sample size; 0 selects
	// pq.DefaultSample.
	Sample int
	// Rerank re-scores the top-Rerank ADC candidates against the
	// retained float32 vectors under the true metric and returns exact
	// distances. 0 disables re-ranking: results then carry ADC
	// (approximate) distances. Values >= n make results identical to
	// the exact linear scan.
	Rerank int
	// Seed makes training deterministic: same data, params, and seed
	// give bit-identical codebooks, codes, and results.
	Seed int64
}

// PQCounters are cumulative per-engine work counters, safe to read
// concurrently with searches; the server exports them as /metrics
// series.
type PQCounters struct {
	TableBuilds uint64 // ADC lookup tables built (one per query)
	CodeEvals   uint64 // code words scanned
	RerankEvals uint64 // full-precision re-rank distance computations
}

// PQEngine is an approximate linear-scan engine over product-quantized
// codes, with optional exact re-ranking: vault-parallel within a query,
// worker fan-out across the queries of a batch (the ADC scan has no
// query tile yet), and results merged under the (distance, id) total
// order so serial and vault-parallel scans are bit-identical.
type PQEngine struct {
	data        []float32 // retained full-precision rows (re-rank)
	dim         int
	n           int
	metric      vec.Metric
	tableMetric vec.Metric // metric the ADC tables are built under
	scale       float64    // ADC distance scale (0.5 for cosine)
	encodeData  []float32  // rows as encoded (normalized for cosine)
	cb          *pq.Codebook
	slabs       []*pq.Codes  // vault-local cache-blocked code groups
	starts      []int        // first row of each slab; len(slabs)+1
	rerank      atomic.Int64 // read once per search: SetRerank may race a query
	workers     int
	vaults      int
	serialBelow int
	counters    struct{ tableBuilds, codeEvals, rerankEvals atomic.Uint64 }
}

// NewPQEngine trains a codebook over data and encodes it, with the
// vault count following workers as NewEngine does.
func NewPQEngine(data []float32, dim int, metric vec.Metric, p PQParams, workers int) (*PQEngine, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	v := workers
	if v > MaxVaults {
		v = MaxVaults
	}
	return NewPQEngineVaults(data, dim, metric, p, workers, v)
}

// NewPQEngineVaults is NewPQEngine with an explicit vault count. The
// code bytes are laid out in one cache-blocked slab per vault, sliced
// with the same chunking the scan uses, so each vault's scan touches
// only its own slab. Supported metrics: Euclidean and Manhattan
// natively; Cosine via normalize-at-encode (vectors are normalized to
// unit length before training and coding, ADC then scans squared-L2
// tables and halves the result, since ||a-b||²/2 = 1-cos(a,b) on unit
// vectors). Re-rank always reports true-metric distances over the
// original, un-normalized vectors.
func NewPQEngineVaults(data []float32, dim int, metric vec.Metric, p PQParams, workers, vaults int) (*PQEngine, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("knn: data length %d not a positive multiple of dim %d", len(data), dim)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if p.Rerank < 0 {
		return nil, fmt.Errorf("knn: negative rerank %d", p.Rerank)
	}
	e := &PQEngine{
		data:        data,
		dim:         dim,
		n:           len(data) / dim,
		metric:      metric,
		tableMetric: metric,
		scale:       1,
		encodeData:  data,
		workers:     workers,
		vaults:      resolveVaults(vaults),
		serialBelow: DefaultSerialThreshold,
	}
	e.rerank.Store(int64(p.Rerank))
	// An ADC candidate carries its row in 32 bits.
	if uint64(e.n) > math.MaxUint32 {
		return nil, fmt.Errorf("knn: pq engine holds at most %d rows, got %d", uint32(math.MaxUint32), e.n)
	}
	switch metric {
	case vec.Euclidean, vec.Manhattan:
	case vec.Cosine:
		norm := make([]float32, len(data))
		for i := 0; i < e.n; i++ {
			normalizeInto(norm[i*dim:(i+1)*dim], data[i*dim:(i+1)*dim])
		}
		e.encodeData = norm
		e.tableMetric = vec.Euclidean
		e.scale = 0.5
	default:
		return nil, fmt.Errorf("knn: pq engine does not support metric %s", metric)
	}
	cb, err := pq.Train(e.encodeData, dim, pq.Params{M: p.M, Sample: p.Sample, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	e.cb = cb
	codes := cb.Encode(e.encodeData)
	m := cb.M()
	chunk := (e.n + e.vaults - 1) / e.vaults
	e.starts = []int{0}
	for lo := 0; lo < e.n; lo += chunk {
		hi := min(lo+chunk, e.n)
		e.slabs = append(e.slabs, pq.Pack(codes[lo*m:hi*m], m))
		e.starts = append(e.starts, hi)
	}
	return e, nil
}

// normalizeInto writes src scaled to unit L2 norm into dst; a zero
// vector stays zero (its cosine distance is 1 to everything by
// convention, which only the exact re-rank reproduces).
func normalizeInto(dst, src []float32) {
	n := vec.Norm(src)
	if n == 0 {
		copy(dst, src)
		return
	}
	inv := 1 / n
	for i, v := range src {
		dst[i] = float32(float64(v) * inv)
	}
}

// N returns the database size.
func (e *PQEngine) N() int { return e.n }

// Dim returns the vector dimensionality.
func (e *PQEngine) Dim() int { return e.dim }

// Metric returns the engine's distance metric.
func (e *PQEngine) Metric() vec.Metric { return e.metric }

// Vaults returns the intra-query vault count.
func (e *PQEngine) Vaults() int { return e.vaults }

// M returns the code width in bytes per row.
func (e *PQEngine) M() int { return e.cb.M() }

// Codebook exposes the trained codebook (read-only by convention);
// the device model uses it to size vault-resident tables.
func (e *PQEngine) Codebook() *pq.Codebook { return e.cb }

// CodeBytes returns the total size of the packed code slabs.
func (e *PQEngine) CodeBytes() int {
	total := 0
	for _, s := range e.slabs {
		total += s.Bytes()
	}
	return total
}

// Rerank returns the current re-rank depth (0 = ADC only).
func (e *PQEngine) Rerank() int { return int(e.rerank.Load()) }

// SetRerank adjusts the re-rank depth, the engine's accuracy knob. It
// is safe beside running searches: each reads the depth once, so it
// selects and re-ranks at the old depth or the new one, never a mix.
func (e *PQEngine) SetRerank(r int) { e.rerank.Store(int64(max(r, 0))) }

// SetSerialThreshold overrides the dataset size below which queries
// scan serially regardless of the vault count.
func (e *PQEngine) SetSerialThreshold(n int) { e.serialBelow = n }

// Row returns full-precision database vector i.
func (e *PQEngine) Row(i int) []float32 { return e.data[i*e.dim : (i+1)*e.dim] }

// Counters returns a snapshot of the cumulative work counters.
func (e *PQEngine) Counters() PQCounters {
	return PQCounters{
		TableBuilds: e.counters.tableBuilds.Load(),
		CodeEvals:   e.counters.codeEvals.Load(),
		RerankEvals: e.counters.rerankEvals.Load(),
	}
}

// Search returns the k approximate nearest neighbors of q.
func (e *PQEngine) Search(q []float32, k int) []topk.Result {
	res, _ := e.SearchStats(q, k)
	return res
}

// SearchStats is Search plus work accounting.
func (e *PQEngine) SearchStats(q []float32, k int) ([]topk.Result, Stats) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of
// sp per scanned slab (sp may be nil). Results are bit-identical to a
// serial scan at any vault count.
func (e *PQEngine) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]topk.Result, Stats) {
	return e.search(q, k, sp, false)
}

func (e *PQEngine) search(q []float32, k int, sp *obs.Span, forceSerial bool) ([]topk.Result, Stats) {
	rerank := e.Rerank()
	cands, st := e.adcCandidates(q, k, rerank, sp, forceSerial)
	if rerank == 0 {
		return e.adcResults(cands), st
	}
	// Exact re-rank: re-score every ADC candidate under the true
	// metric over the retained float32 rows, with the exact scan's
	// kernel. Selector admission is push-order independent, so the
	// result is a pure function of the candidate set — and with rerank
	// >= n the candidate set is the whole database, making results
	// bit-identical to the exact scan. The candidates come unsorted and
	// are scored as they come: ordering them by row address first was
	// measured and loses more to the sort than the rows' locality gives
	// back (DESIGN.md §13).
	rsp := sp.Start("rerank", obs.Tag{Key: "cands", Value: len(cands)})
	ts := NewTileScan(vec.NewTile(e.metric, [][]float32{q}), k)
	for _, c := range cands {
		ts.Offer(c.row(), e.Row(c.row()))
	}
	res, rst := ts.Results()
	rsp.End()
	st.Add(rst)
	e.counters.rerankEvals.Add(uint64(len(cands)))
	return res[0], st
}

// adcResults is the answer of a search that does not re-rank: the
// candidates closest first, at their ADC distances.
func (e *PQEngine) adcResults(cands []cand) []topk.Result {
	slices.Sort(cands)
	out := make([]topk.Result, len(cands))
	for i, c := range cands {
		out[i] = topk.Result{ID: c.row(), Dist: float64(c.dist()) * e.scale}
	}
	return out
}

// adcCandidates runs the query's table build and ADC scan, returning
// the R best candidates under (ADC distance, row), R = max(k, rerank),
// in no particular order. It is the shared front half of both the
// in-RAM search (re-rank against the retained rows) and the tiered
// search (re-rank through the out-of-core store): the candidate set
// depends only on the in-RAM codes, so the two paths diverge strictly
// after this point. sp, the caller's exec span, gets one "vault" child
// per slab scanned in parallel and the adc_kept tag (in a batch, the
// last query's).
func (e *PQEngine) adcCandidates(q []float32, k, rerank int, sp *obs.Span, forceSerial bool) ([]cand, Stats) {
	if len(q) != e.dim {
		panic("knn: query dimension mismatch")
	}
	if k <= 0 {
		panic("knn: k must be positive")
	}
	qt := q
	if e.metric == vec.Cosine {
		qt = make([]float32, e.dim)
		normalizeInto(qt, q)
	}
	lut := e.cb.Table(e.tableMetric, qt, nil)
	var st Stats
	st.TableBuilds = 1
	// Building the table evaluates all M×256 query-to-centroid partial
	// distances, which together touch Ks full vector widths.
	st.Dims += pq.Ks * e.dim

	// One selection at every depth: each scanned range keeps its R
	// best in a reservoir and hands it over unsorted, and the ranges'
	// candidates are selected from once more, together.
	r := max(k, rerank)
	scan := func(lo, hi int) ([]cand, Stats) { return e.scanRange(lut, r, lo, hi) }
	var parts [][]cand
	var scanStats Stats
	if forceSerial || e.vaults == 1 || e.n < e.serialBelow {
		parts = make([][]cand, 1)
		parts[0], scanStats = scan(0, e.n)
	} else {
		parts, scanStats = fanVaults(e.n, e.vaults, 1, sp, scan)
	}
	sp.SetTag("adc_kept", scanStats.PQKept)
	st.Add(scanStats)
	e.counters.tableBuilds.Add(1)
	e.counters.codeEvals.Add(uint64(st.CodeEvals))
	return selectCands(r, parts...), st
}

// scanRange runs the ADC kernel over global rows [lo, hi), walking the
// vault slabs that overlap the range, and returns the range's R best
// candidates plus up to R more it had not yet dropped. A candidate's
// distance is the float32 table sum in fixed subquantizer order, so it
// is independent of the partitioning; e.scale (1, or the exact and
// order-preserving 0.5) is applied only to distances that are
// returned. Every row is one PQInserts, every row past the running
// bound one PQKept.
func (e *PQEngine) scanRange(lut []float32, r, lo, hi int) ([]cand, Stats) {
	res := newReservoir(r, hi-lo)
	var st Stats
	for v, slab := range e.slabs {
		start := e.starts[v]
		l := max(lo, start) - start
		h := min(hi, e.starts[v+1]) - start
		if l >= h {
			continue
		}
		slab.Scan(lut, l, h, func(base int, dists []float32) {
			res.offer(start+base, dists)
		})
		st.CodeEvals += h - l
	}
	st.PQInserts = st.CodeEvals
	st.PQKept = res.kept
	return res.buf, st
}

// SearchBatch runs one Search per query. A single query, or fewer
// queries than workers, runs them in turn with vault-parallel scans so
// a short batch still uses the machine; longer batches fan out across
// workers with serial scans, which keeps total parallelism at the
// worker count instead of workers × vaults.
func (e *PQEngine) SearchBatch(qs [][]float32, k int) [][]topk.Result {
	return e.SearchBatchSpan(qs, k, nil)
}

// SearchBatchSpan is SearchBatch recording "vault" child spans of sp
// for queries that take the vault-parallel path (sp may be nil).
func (e *PQEngine) SearchBatchSpan(qs [][]float32, k int, sp *obs.Span) [][]topk.Result {
	if e.vaults > 1 && (len(qs) == 1 || len(qs) < e.workers) {
		out := make([][]topk.Result, len(qs))
		for i, q := range qs {
			out[i], _ = e.search(q, k, sp, false)
		}
		return out
	}
	return Batch(qs, k, e.workers, func(q []float32, k int) []topk.Result {
		res, _ := e.search(q, k, nil, true)
		return res
	})
}
