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
	"ssam/internal/par"
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

// PQScan is the approximate linear scan over product-quantized codes,
// with optional exact re-ranking. The packed codes are always resident;
// the full-precision rows the re-rank reads sit wherever the row source
// says (rows.go). RunBatch is its one search: a single query is a batch
// of one. Over resident rows its only error is a query of the wrong
// width or a panic; with the rows in a tier store every call can also
// return the store's. Vault-parallel within a query, and results merged
// under the (distance, id) total order so serial and vault-parallel
// scans are bit-identical. It keeps no work counters: RunBatch returns
// each batch's, and the re-rank's distance evaluations are its DistEvals.
type PQScan struct {
	corpus                 // the full-precision rows (re-rank)
	tableMetric vec.Metric // metric the ADC tables are built under
	scale       float64    // ADC distance scale (0.5 for cosine)
	cb          *pq.Codebook
	slabs       []*pq.Codes  // vault-local cache-blocked code groups, one a slice of the walk's split
	pilotCodes  *pq.Codes    // the pilot's rows' codes, packed (nil when there is no pilot)
	rerank      atomic.Int64 // read once per search: SetRerank may race a query
}

// NewPQScan trains a codebook over data and encodes it. The code bytes
// are laid out in one cache-blocked slab per vault, cut by the walk's
// split (par.Split), so each vault's scan touches only its own slab. Supported metrics: Euclidean and Manhattan natively; Cosine
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
func NewPQScan(data []float32, dim int, metric vec.Metric, p PQParams, vaults int, store *tier.Store) (*PQScan, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("knn: data length %d not a positive multiple of dim %d", len(data), dim)
	}
	if p.Rerank < 0 {
		return nil, fmt.Errorf("knn: negative rerank %d", p.Rerank)
	}
	e := &PQScan{
		corpus: corpus{
			Walk:   NewWalk(vaults),
			src:    slab{data, dim},
			dim:    dim,
			n:      len(data) / dim,
			metric: metric,
		},
		tableMetric: metric,
		scale:       1,
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
	// Training and encoding fan out over every core; a panic in one of
	// their chunks comes back on this goroutine and is the build's error.
	var codes []byte
	if err := par.Safe(func() (err error) {
		if e.cb, err = pq.Train(encodeData, dim, pq.Params{M: p.M, Sample: p.Sample, Seed: p.Seed}); err != nil {
			return err
		}
		codes = e.cb.Encode(encodeData)
		return nil
	}); err != nil {
		return nil, err
	}
	m, split := e.cb.M(), e.split(e.n)
	e.slabs = make([]*pq.Codes, split.Len())
	for v := range e.slabs {
		lo, hi := split.Bounds(v, v+1)
		e.slabs[v] = pq.Pack(codes[lo*m:hi*m], m)
	}
	// The pilot's rows depend on n alone. Their codes, s·M bytes, are
	// packed a second time, so the pilot runs the scan's kernel over them
	// instead of gathering each row's M bytes from M columns.
	if s, _ := pilotShape(e.n, 0); s > 0 {
		strided := make([]byte, s*m)
		for i := range s {
			row := i * e.n / s
			copy(strided[i*m:(i+1)*m], codes[row*m:(row+1)*m])
		}
		e.pilotCodes = pq.Pack(strided, m)
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

// pqQuery is RunBatch's query: the scan, and the walk its ADC pass takes.
type pqQuery struct {
	e *PQScan
	w *Walk
}

// Query returns the k approximate nearest neighbors of q, a batch of
// one: the ADC scan over the resident codes, walked by w (one "vault"
// child span of sp per slab scanned in parallel; sp may be nil), then
// the exact re-rank of its best candidates (rerankRows), whose tile
// holds q itself. Results are bit-identical at any vault count and
// wherever the rows sit. The error is a page the store could not serve;
// an ADC-only search (depth 0) reads no rows.
func (p pqQuery) Query(q [][]float32, k int, sp *obs.Span) ([]topk.Result, Stats, error) {
	e := p.e
	rerank := e.Rerank()
	cands, st, err := e.adcCandidates(q[0], k, rerank, sp, p.w)
	if err != nil {
		return nil, st, err
	}
	if rerank == 0 {
		return e.adcResults(cands), st, nil
	}
	res, rst, err := e.rerankRows(q, k, cands, sp)
	if err != nil {
		return nil, st, err
	}
	st.Add(rst)
	return res, st, nil
}

// rerankAhead is how many candidates ahead of the one it scores the
// re-rank prefetches a row: 4 and 8 measured the same, 16 slower.
const rerankAhead = 8

// rerankRows is the exact re-rank: every ADC candidate re-scored under
// the true metric over the full-precision rows, with the exact scan's
// kernel. Selector admission is push-order independent, so the result
// is a pure function of the candidate set — and with rerank >= n the
// candidate set is the whole database, making results bit-identical to
// the exact scan. Resident rows are one partition and the candidates,
// which come unsorted, are scored as they come: ordering them by row
// address first was measured and loses more to the sort than the rows'
// locality gives back (DESIGN.md §13); each row is prefetched
// rerankAhead candidates before it is scored instead. Over a store the
// candidates are bucketed by page and the pages visited in ascending
// order, each pinned once and the next one with candidates prefetched
// meanwhile.
// Each partition visited is a "rerank" child span of sp tagged cands
// (and, over a store, vault and tier_hit).
func (e *PQScan) rerankRows(q [][]float32, k int, cands []cand, sp *obs.Span) ([]topk.Result, Stats, error) {
	store := e.src.pages()
	groups := [][]cand{cands}
	if store != nil {
		groups = make([][]cand, store.Vaults())
		for _, c := range cands {
			v := store.PageOf(c.row())
			groups[v] = append(groups[v], c)
		}
	}
	ts := NewTileScan(vec.NewTile(e.metric, q), k)
	rerank := func(v int, group []cand) error {
		rsp := sp.Start("rerank", obs.Tag{Key: "cands", Value: len(group)})
		defer rsp.End()
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
			return err
		}
		defer release() // on every exit, a panic's included
		for i, c := range group {
			if i+rerankAhead < len(group) {
				off := (group[i+rerankAhead].row() - lo) * e.dim
				vec.Prefetch(rows[off : off+e.dim])
			}
			off := (c.row() - lo) * e.dim
			ts.Offer(c.row(), rows[off:off+e.dim])
		}
		// A block of buffered rows may not outlive the partition it
		// points into: score them before the page can be evicted.
		ts.Flush()
		return nil
	}
	for v, group := range groups {
		if len(group) == 0 {
			continue
		}
		if err := rerank(v, group); err != nil {
			return nil, Stats{}, err
		}
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
// the R best under (ADC distance, row), R = max(k, rerank) held to n, in
// no particular order: selected from the rows at or below the pilot's
// bound, or from every row when fewer than R were. The slabs are the
// partitions w walks; the codes are resident whatever the rows are, so
// they fan out. sp, the exec span, gets a "vault" child per slab scanned
// in parallel and the adc_kept and adc_rescan tags (in a batch, the last
// query's). The error is a panic in a slab's scan.
func (e *PQScan) adcCandidates(q []float32, k, rerank int, sp *obs.Span, w *Walk) ([]cand, Stats, error) {
	if k <= 0 {
		panic("knn: k must be positive")
	}
	qt := q
	if e.metric == vec.Cosine {
		qt = make([]float32, e.dim)
		normalizeInto(qt, q)
	}
	lut := e.cb.Table(e.tableMetric, qt, nil)
	// The table's M×256 partial distances touch Ks full vector widths.
	st := Stats{TableBuilds: 1, Dims: pq.Ks * e.dim}

	r := min(max(k, rerank), e.n)
	pass := adcPass{Split: e.split(e.n), e: e, lut: lut, r: r}
	pass.bound = e.pilot(lut, r)
	cands, scanned, err := WalkVaults(w, pass, 1, false, sp)
	st.Add(scanned)
	if err == nil && scanned.PQKept < r {
		pass.bound = allCands
		cands, scanned, err = WalkVaults(w, pass, 1, false, sp)
		st.Add(scanned)
		sp.SetTag("adc_rescan", true)
		st.Rescans++
	}
	if err != nil {
		return nil, Stats{}, err
	}
	sp.SetTag("adc_kept", st.PQKept)
	return selectCands(r, cands), st, nil // a merged walk has selected already
}

// pilotRows caps the pilot (DESIGN.md §13): of s = min(pilotRows, n/32)
// rows i·n/s, the distance at rank λ + 4·√(λ(1−r/n)) + 3, λ = r·s/n, has
// fewer than r rows under it less than once in 40 000 queries.
const pilotRows = 512

// pilotShape returns the pilot's size for n rows and the rank that
// bounds the r best, 0 where that bound would keep nearly every row.
func pilotShape(n, r int) (s, rank int) {
	s = min(pilotRows, n/32)
	p := float64(r) / float64(max(n, 1))
	lambda := float64(s) * p
	if rank = int(math.Ceil(lambda + 4*math.Sqrt(lambda*(1-p)) + 3)); rank >= s {
		rank = 0
	}
	return s, rank
}

// pilot returns the bound for the r best rows, or allCands. Its distances
// are the scan's own, taken early over the pilot rows' packed codes, and
// not counted in CodeEvals.
func (e *PQScan) pilot(lut []float32, r int) cand {
	s, rank := pilotShape(e.n, r)
	if rank == 0 {
		return allCands
	}
	var buf [pilotRows]cand
	e.pilotCodes.Scan(lut, 0, s, func(base int, dists []float32) {
		for i, d := range dists {
			buf[base+i] = makeCand(d, uint32((base+i)*e.n/s))
		}
	})
	nthElement(buf[:s], rank-1)
	return buf[rank-1] | math.MaxUint32
}

// adcPass is one ADC pass of a query over the code slabs, the walk's
// partitions: Scan(a, b) runs the kernel over slabs [a, b) and returns
// their rows at or below bound, Merge selects the r best of several
// slabs' (selectCands). A candidate's distance is the float32 table sum
// in fixed subquantizer order, so it is independent of the partitioning;
// e.scale (1, or the exact and order-preserving 0.5) is applied only to
// distances that are returned. Every row is one CodeEvals and PQInserts,
// every row at or below the bound one PQKept.
type adcPass struct {
	par.Split
	e     *PQScan
	lut   []float32
	bound cand
	r     int
}

func (p adcPass) Scan(a, b int, _ *obs.Span) ([]cand, Stats, error) {
	lo, hi := p.Bounds(a, b)
	kept := make([]cand, 0, (hi-lo)/16) // at R = n/50 the bound keeps 1/20
	for v := a; v < b; v++ {
		start, end := p.Bounds(v, v+1)
		p.e.slabs[v].Scan(p.lut, 0, end-start, func(base int, dists []float32) {
			kept = collect(kept, p.bound, start+base, dists)
		})
	}
	return kept, Stats{CodeEvals: hi - lo, PQInserts: hi - lo, PQKept: len(kept)}, nil
}

func (p adcPass) Merge(parts [][]cand) []cand { return selectCands(p.r, parts...) }

// serialWalk is a walk of one vault: every call scans as one.
var serialWalk = Walk{vaults: 1}

// RunBatch runs one search per query and sums their work. Over a store
// the queries run in turn, each with its vault-parallel ADC scan: pages
// are a shared, budgeted resource, and sequential re-ranks reuse the hot
// ones instead of thrashing them. Over resident rows a single query, or
// fewer queries than cores, also run in turn so a short batch still
// uses the machine; longer batches fan out across the cores with serial
// scans, which keeps total parallelism at the core count instead of
// cores × vaults. Queries that run in turn record their spans under sp
// (nil-safe). On error — a query of the wrong width, a page the store
// could not serve, a panic — results before failedAt are valid and
// failedAt names the query that failed (-1 on success).
func (e *PQScan) RunBatch(qs [][]float32, k int, sp *obs.Span) ([][]topk.Result, Stats, int, error) {
	for i, q := range qs {
		if err := checkDim(q, e.dim); err != nil {
			return nil, Stats{}, i, err
		}
	}
	if e.src.pages() == nil && len(qs) > 1 && !(e.vaults > 1 && len(qs) < runtime.GOMAXPROCS(0)) {
		return EachQuery(qs, k, sp, false, pqQuery{e, &serialWalk})
	}
	return EachQuery(qs, k, sp, true, pqQuery{e, &e.Walk})
}
