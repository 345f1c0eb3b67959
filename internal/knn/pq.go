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
	"ssam/internal/tier"
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

// PQScan is the approximate linear scan over product-quantized codes,
// with optional exact re-ranking. The packed codes are always resident;
// the full-precision rows the re-rank reads sit wherever the row source
// says (rows.go). Over resident rows it is PQEngine's core and cannot
// fail; with the rows in a tier store (NewPQScan) every call can return
// the store's error, which is why Run and RunBatch are the only ways to
// search one. Vault-parallel within a query, and results merged under
// the (distance, id) total order so serial and vault-parallel scans are
// bit-identical.
type PQScan struct {
	corpus                 // the full-precision rows (re-rank)
	tableMetric vec.Metric // metric the ADC tables are built under
	scale       float64    // ADC distance scale (0.5 for cosine)
	cb          *pq.Codebook
	slabs       []*pq.Codes  // vault-local cache-blocked code groups
	starts      []int        // first row of each slab; len(slabs)+1
	rerank      atomic.Int64 // read once per search: SetRerank may race a query
	workers     int
	counters    struct{ tableBuilds, codeEvals, rerankEvals atomic.Uint64 }
}

// PQEngine is a PQScan over resident rows: it cannot fail, so its
// searches return no error. A batch fans out across workers (the ADC
// scan has no query tile yet).
type PQEngine struct {
	*PQScan
	data []float32
}

// NewPQEngine trains a codebook over data and encodes it, with the
// vault count following workers as NewEngine does.
func NewPQEngine(data []float32, dim int, metric vec.Metric, p PQParams, workers int) (*PQEngine, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return NewPQEngineVaults(data, dim, metric, p, workers, min(workers, MaxVaults))
}

// NewPQEngineVaults is NewPQEngine with an explicit vault count.
func NewPQEngineVaults(data []float32, dim int, metric vec.Metric, p PQParams, workers, vaults int) (*PQEngine, error) {
	s, err := NewPQScan(data, dim, metric, p, workers, vaults, nil)
	if err != nil {
		return nil, err
	}
	return &PQEngine{s, data}, nil
}

// NewPQScan trains a codebook over data and encodes it. The code bytes
// are laid out in one cache-blocked slab per vault, sliced with the
// same chunking the scan uses, so each vault's scan touches only its
// own slab. Supported metrics: Euclidean and Manhattan natively; Cosine
// via normalize-at-encode (vectors are normalized to unit length before
// training and coding, ADC then scans squared-L2 tables and halves the
// result, since ||a-b||²/2 = 1-cos(a,b) on unit vectors). Re-rank
// always reports true-metric distances over the original, un-normalized
// vectors: data itself when store is nil, and otherwise the store's
// rows, so that only the codes stay resident and the full-precision
// rows — the 4·dim/M-times-larger half — are read back just for the
// top ADC candidates. The store must hold exactly the training data
// (same rows, same order): it is the re-rank's source of truth, and
// results are bit-identical to a scan that kept data.
func NewPQScan(data []float32, dim int, metric vec.Metric, p PQParams, workers, vaults int, store *tier.Store) (*PQScan, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("knn: data length %d not a positive multiple of dim %d", len(data), dim)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if p.Rerank < 0 {
		return nil, fmt.Errorf("knn: negative rerank %d", p.Rerank)
	}
	e := &PQScan{
		corpus: corpus{
			src:         slab{data, dim},
			dim:         dim,
			n:           len(data) / dim,
			metric:      metric,
			vaults:      ResolveVaults(vaults),
			serialBelow: DefaultSerialThreshold,
		},
		tableMetric: metric,
		scale:       1,
		workers:     workers,
	}
	if store != nil {
		if store.Dim() != dim || store.Rows() != e.n {
			return nil, fmt.Errorf("knn: store shape %dx%d does not match data %dx%d", store.Rows(), store.Dim(), e.n, dim)
		}
		e.src = paged{store}
	}
	e.rerank.Store(int64(p.Rerank))
	// An ADC candidate carries its row in 32 bits.
	if uint64(e.n) > math.MaxUint32 {
		return nil, fmt.Errorf("knn: pq engine holds at most %d rows, got %d", uint32(math.MaxUint32), e.n)
	}
	encodeData := data // rows as encoded (normalized for cosine)
	switch metric {
	case vec.Euclidean, vec.Manhattan:
	case vec.Cosine:
		encodeData = make([]float32, len(data))
		for i := 0; i < e.n; i++ {
			normalizeInto(encodeData[i*dim:(i+1)*dim], data[i*dim:(i+1)*dim])
		}
		e.tableMetric = vec.Euclidean
		e.scale = 0.5
	default:
		return nil, fmt.Errorf("knn: pq engine does not support metric %s", metric)
	}
	cb, err := pq.Train(encodeData, dim, pq.Params{M: p.M, Sample: p.Sample, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	e.cb = cb
	codes := cb.Encode(encodeData)
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

// M returns the code width in bytes per row.
func (e *PQScan) M() int { return e.cb.M() }

// Codebook exposes the trained codebook (read-only by convention);
// the device model uses it to size vault-resident tables.
func (e *PQScan) Codebook() *pq.Codebook { return e.cb }

// CodeBytes returns the total size of the packed code slabs.
func (e *PQScan) CodeBytes() int {
	total := 0
	for _, s := range e.slabs {
		total += s.Bytes()
	}
	return total
}

// Rerank returns the current re-rank depth (0 = ADC only).
func (e *PQScan) Rerank() int { return int(e.rerank.Load()) }

// SetRerank adjusts the re-rank depth, the engine's accuracy knob. It
// is safe beside running searches: each reads the depth once, so it
// selects and re-ranks at the old depth or the new one, never a mix.
func (e *PQScan) SetRerank(r int) { e.rerank.Store(int64(max(r, 0))) }

// Counters returns a snapshot of the cumulative work counters.
func (e *PQScan) Counters() PQCounters {
	return PQCounters{
		TableBuilds: e.counters.tableBuilds.Load(),
		CodeEvals:   e.counters.codeEvals.Load(),
		RerankEvals: e.counters.rerankEvals.Load(),
	}
}

// Run returns the k approximate nearest neighbors of q: the ADC scan
// over the resident codes (one "vault" child span of sp per slab
// scanned in parallel; sp may be nil), then the exact re-rank of its
// best candidates (rerankRows). Results are bit-identical at any vault
// count and wherever the rows sit. The error is a query of the wrong
// width or a page the store could not serve; an ADC-only search (depth
// 0) reads no rows.
func (e *PQScan) Run(q []float32, k int, sp *obs.Span) ([]topk.Result, Stats, error) {
	if err := checkDim(q, e.dim); err != nil {
		return nil, Stats{}, err
	}
	return e.search(q, k, sp, false)
}

func (e *PQScan) search(q []float32, k int, sp *obs.Span, forceSerial bool) ([]topk.Result, Stats, error) {
	rerank := e.Rerank()
	cands, st := e.adcCandidates(q, k, rerank, sp, forceSerial)
	if rerank == 0 {
		return e.adcResults(cands), st, nil
	}
	res, rst, err := e.rerankRows(q, k, cands, sp)
	if err != nil {
		return nil, st, err
	}
	st.Add(rst)
	e.counters.rerankEvals.Add(uint64(len(cands)))
	return res, st, nil
}

// rerankRows is the exact re-rank: every ADC candidate re-scored under
// the true metric over the full-precision rows, with the exact scan's
// kernel. Selector admission is push-order independent, so the result
// is a pure function of the candidate set — and with rerank >= n the
// candidate set is the whole database, making results bit-identical to
// the exact scan. Resident rows are one partition and the candidates,
// which come unsorted, are scored as they come: ordering them by row
// address first was measured and loses more to the sort than the rows'
// locality gives back (DESIGN.md §13). Over a store the candidates are
// bucketed by page and the pages visited in ascending order, each
// pinned once and the next one with candidates prefetched meanwhile.
// Each partition visited is a "rerank" child span of sp tagged cands
// (and, over a store, vault and tier_hit).
func (e *PQScan) rerankRows(q []float32, k int, cands []cand, sp *obs.Span) ([]topk.Result, Stats, error) {
	store := e.src.pages()
	groups := [][]cand{cands}
	if store != nil {
		groups = make([][]cand, store.Vaults())
		for _, c := range cands {
			v := store.PageOf(c.row())
			groups[v] = append(groups[v], c)
		}
	}
	ts := NewTileScan(vec.NewTile(e.metric, [][]float32{q}), k)
	for v, group := range groups {
		if len(group) == 0 {
			continue
		}
		rsp := sp.Start("rerank", obs.Tag{Key: "cands", Value: len(group)})
		lo, hi := 0, e.n
		if store != nil {
			rsp.SetTag("vault", v)
			lo, hi, _ = store.PageRows(v) // v < store.Vaults()
			next := v + 1
			for next < len(groups) && len(groups[next]) == 0 {
				next++
			}
			store.Prefetch(next)
		}
		rows, release, err := e.src.pin(v, lo, hi, rsp)
		if err != nil {
			rsp.End()
			return nil, Stats{}, err
		}
		for _, c := range group {
			off := (c.row() - lo) * e.dim
			ts.Offer(c.row(), rows[off:off+e.dim])
		}
		// A block of buffered rows may not outlive the partition it
		// points into: score them before the page can be evicted.
		ts.Flush()
		release()
		rsp.End()
	}
	res, st := ts.Results()
	return res[0], st, nil
}

// adcResults is the answer of a search that does not re-rank: the
// candidates closest first, at their ADC distances.
func (e *PQScan) adcResults(cands []cand) []topk.Result {
	slices.Sort(cands)
	out := make([]topk.Result, len(cands))
	for i, c := range cands {
		out[i] = topk.Result{ID: c.row(), Dist: float64(c.dist()) * e.scale}
	}
	return out
}

// adcCandidates runs the query's table build and ADC scan, returning
// the R best candidates under (ADC distance, row), R = max(k, rerank),
// in no particular order. The candidate set depends only on the
// resident codes, never on where the full-precision rows sit. sp, the
// caller's exec span, gets one "vault" child per slab scanned in
// parallel and the adc_kept tag (in a batch, the last query's).
func (e *PQScan) adcCandidates(q []float32, k, rerank int, sp *obs.Span, forceSerial bool) ([]cand, Stats) {
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
	var parts [][]cand
	var scanStats Stats
	if forceSerial || e.vaults == 1 || e.n < e.serialBelow {
		parts = make([][]cand, 1)
		parts[0], scanStats = e.scanRange(lut, r, 0, e.n)
	} else {
		// The codes are resident whatever the rows are: the slabs fan out.
		parts, scanStats, _ = fanVaults(e.n, e.vaults, 1, false, sp, func(_, lo, hi int, _ *obs.Span) ([]cand, Stats, error) {
			res, st := e.scanRange(lut, r, lo, hi)
			return res, st, nil
		})
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
func (e *PQScan) scanRange(lut []float32, r, lo, hi int) ([]cand, Stats) {
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

// RunBatch runs one search per query. Over a store the queries run in
// turn, each with its vault-parallel ADC scan: pages are a shared,
// budgeted resource, and sequential re-ranks reuse the hot ones instead
// of thrashing them. Over resident rows a single query, or fewer
// queries than workers, also run in turn so a short batch still uses
// the machine; longer batches fan out across workers with serial scans,
// which keeps total parallelism at the worker count instead of workers
// × vaults. Queries that take the vault-parallel path record "vault"
// child spans of sp (nil-safe). On error, results before failedAt are
// valid and failedAt names the query that failed (-1 on success).
func (e *PQScan) RunBatch(qs [][]float32, k int, sp *obs.Span) (out [][]topk.Result, failedAt int, err error) {
	for i, q := range qs {
		if err := checkDim(q, e.dim); err != nil {
			return nil, i, err
		}
	}
	inTurn := e.src.pages() != nil || e.vaults > 1 && (len(qs) == 1 || len(qs) < e.workers)
	if !inTurn {
		return Batch(qs, k, e.workers, func(q []float32, k int) []topk.Result {
			res, _, _ := e.search(q, k, nil, true) // resident rows, widths checked: nothing to fail
			return res
		}), -1, nil
	}
	out = make([][]topk.Result, len(qs))
	for i, q := range qs {
		if out[i], _, err = e.search(q, k, sp, false); err != nil {
			return out, i, err
		}
	}
	return out, -1, nil
}

// Row returns full-precision database vector i.
func (e *PQEngine) Row(i int) []float32 { return e.data[i*e.dim : (i+1)*e.dim] }

// Search returns the k approximate nearest neighbors of q.
func (e *PQEngine) Search(q []float32, k int) []topk.Result {
	res, _ := e.SearchStats(q, k)
	return res
}

// SearchStats is Search plus work accounting.
func (e *PQEngine) SearchStats(q []float32, k int) ([]topk.Result, Stats) {
	res, st, err := e.Run(q, k, nil)
	if err != nil {
		panic(err) // resident rows always read: this is a query of the wrong width, the caller's bug
	}
	return res, st
}

// SearchBatch runs one Search per query (RunBatch).
func (e *PQEngine) SearchBatch(qs [][]float32, k int) [][]topk.Result {
	out, _, err := e.RunBatch(qs, k, nil)
	if err != nil {
		panic(err) // as in SearchStats
	}
	return out
}
