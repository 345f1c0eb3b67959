package ssam

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/ssamdev"
	"ssam/internal/tier"
	"ssam/internal/vec"
)

// ErrFreed is returned by operations on a freed region.
var ErrFreed = errors.New("ssam: region has been freed")

// BatchError reports a SearchBatch failure at a specific query. The
// batch's queries before Index completed normally and their results
// are returned alongside the error; queries from Index on were not
// answered.
type BatchError struct {
	Index int // offset of the failing query within the batch
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("ssam: batch query %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// Region is an SSAM-enabled memory region (the nbuf of Fig. 4). It is
// not safe for concurrent mutation (Load/BuildIndex/Free), and the
// staged WriteQuery/Exec/ReadResult sequence assumes one caller; but
// concurrent Search, SearchBinary and SearchBatch calls are safe once
// the index is built — Host execution queries read-only index
// structures lock-free, and Device execution serializes on the
// simulated module internally.
type Region struct {
	cfg  Config
	dims int

	// immutable is why the region cannot take writes (nil for in-RAM
	// Linear regions), decided once from the configuration by New.
	immutable error

	data   []float32    // float datasets
	codes  []vec.Binary // Hamming datasets
	loaded bool
	freed  atomic.Bool // Free against concurrent searches: they answer or say ErrFreed

	// eng is the live engine (engine.go): nil until BuildIndex, swapped
	// for the mutable store by the first write, dropped by a reload or
	// Free. Searches load it lock-free; mutMu serializes the swaps made
	// outside BuildIndex (migration, teardown) and SetCompactHook.
	eng       atomic.Pointer[engine]
	mutMu     sync.Mutex
	seed      func() (mutableStore, error) // builds the mutable successor; armed by BuildIndex on Linear regions
	onCompact func(CompactResult)

	// device is the simulated module of a Device region, for Device().
	device *ssamdev.Device

	// mu guards lastStats, which Search updates concurrently.
	mu        sync.Mutex
	lastStats DeviceStats
	staged    query
	lastRes   []Result

	// batchFault, when non-nil, runs before each device-mode batch
	// query (test seam for mid-batch failure injection).
	batchFault func(i int) error
}

// New allocates an SSAM-enabled region for vectors of the given
// dimensionality (nmalloc + nmode).
func New(dims int, cfg Config) (*Region, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("ssam: dims must be positive, got %d", dims)
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("ssam: metric %d out of range [%v..%v]", int(cfg.Metric), Euclidean, Hamming)
	}
	if !cfg.Mode.Valid() {
		return nil, fmt.Errorf("ssam: mode %d out of range [%v..%v]", int(cfg.Mode), Linear, Quantized)
	}
	if !cfg.Execution.Valid() {
		return nil, fmt.Errorf("ssam: execution %d not in {%v, %v}", int(cfg.Execution), Host, Device)
	}
	if cfg.VectorLength == 0 {
		cfg.VectorLength = 8
	}
	switch cfg.VectorLength {
	case 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("ssam: vector length %d not in {2,4,8,16}", cfg.VectorLength)
	}
	if cfg.Vaults < 0 {
		return nil, fmt.Errorf("ssam: vaults must be non-negative, got %d", cfg.Vaults)
	}
	if cfg.Metric == Hamming && cfg.Mode != Linear {
		return nil, fmt.Errorf("ssam: Hamming regions support Linear mode only")
	}
	// Quantized joins Linear in supporting every float metric (ADC
	// tables are additive under Euclidean and Manhattan, and cosine is
	// served by normalize-at-encode); the tree, LSH and graph indexes
	// remain Euclidean-only.
	if cfg.Execution == Device && cfg.Mode != Linear && cfg.Mode != Quantized && cfg.Metric != Euclidean {
		return nil, fmt.Errorf("ssam: device %v indexing requires the Euclidean metric", cfg.Mode)
	}
	if cfg.Mode != Linear && cfg.Mode != Quantized && cfg.Metric != Euclidean {
		return nil, fmt.Errorf("ssam: %v indexing requires the Euclidean metric", cfg.Mode)
	}
	if cfg.Index.Rerank < 0 {
		return nil, fmt.Errorf("ssam: rerank must be non-negative, got %d", cfg.Index.Rerank)
	}
	if cfg.Storage != nil {
		if cfg.Mode != Linear && cfg.Mode != Quantized {
			return nil, fmt.Errorf("ssam: storage-backed regions support Linear and Quantized modes, not %v", cfg.Mode)
		}
		if cfg.Metric == Hamming {
			return nil, errors.New("ssam: storage-backed regions do not support the Hamming metric")
		}
		if cfg.Storage.BudgetBytes < 0 {
			return nil, fmt.Errorf("ssam: storage budget must be non-negative, got %d", cfg.Storage.BudgetBytes)
		}
		if cfg.Storage.Path == "" && cfg.Execution == Host {
			return nil, errors.New("ssam: storage path required for Host execution")
		}
	}
	r := &Region{cfg: cfg, dims: dims}
	switch {
	case cfg.Mode != Linear:
		r.immutable = ErrImmutableEngine
	case cfg.Storage != nil:
		// The backing file is the dataset, and the RCU store has no
		// out-of-core write path yet (see ROADMAP follow-ups).
		r.immutable = fmt.Errorf("%w: storage-backed region", ErrImmutableEngine)
	}
	return r, nil
}

// engine returns the live engine, or nil before BuildIndex.
func (r *Region) engine() engine {
	if p := r.eng.Load(); p != nil {
		return *p
	}
	return nil
}

// dropEngine closes and detaches the live engine and everything built
// with it (dataset reload and Free): the region reverts to pure
// load-then-build state, and mutation history restarts at seq 0.
func (r *Region) dropEngine() {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	if old := r.eng.Swap(nil); old != nil {
		(*old).close()
	}
	r.seed, r.device = nil, nil
}

// Dims returns the region's vector dimensionality (bits for Hamming).
func (r *Region) Dims() int { return r.dims }

// Len returns the number of loaded vectors — live rows once the region
// has migrated to the mutable store.
func (r *Region) Len() int {
	if e := r.engine(); e != nil {
		return e.len()
	}
	return len(r.codes) + len(r.data)/r.dims // one of the two is empty
}

// LoadFloat32 copies a flattened row-major dataset into the region
// (nmemcpy). Not valid for Hamming regions.
func (r *Region) LoadFloat32(data []float32) error {
	if r.freed.Load() {
		return ErrFreed
	}
	if r.cfg.Metric == Hamming {
		return errors.New("ssam: LoadFloat32 on a Hamming region; use LoadBinary")
	}
	if len(data) == 0 || len(data)%r.dims != 0 {
		return fmt.Errorf("ssam: data length %d not a positive multiple of dims %d", len(data), r.dims)
	}
	// A reload replaces the logical dataset wholesale: the engine (and a
	// mutable store it may have become) is stale.
	r.dropEngine()
	r.data = append([]float32(nil), data...)
	r.loaded = true
	return nil
}

// LoadBinary copies bit-packed codes into a Hamming region.
func (r *Region) LoadBinary(codes []BinaryCode) error {
	if r.freed.Load() {
		return ErrFreed
	}
	if r.cfg.Metric != Hamming {
		return errors.New("ssam: LoadBinary on a non-Hamming region")
	}
	if len(codes) == 0 {
		return errors.New("ssam: empty code set")
	}
	for _, c := range codes {
		if c.Dim != r.dims {
			return fmt.Errorf("ssam: code width %d, want %d", c.Dim, r.dims)
		}
	}
	r.dropEngine() // see LoadFloat32
	r.codes = append([]BinaryCode(nil), codes...)
	r.loaded = true
	return nil
}

// NewBinaryCode returns an empty code of the region's width, for
// assembling Hamming queries.
func NewBinaryCode(bits int) BinaryCode { return vec.NewBinary(bits) }

// BuildIndex constructs the region's search structures
// (nbuild_index). For Device execution it lays the dataset out across
// the simulated module's vaults and assembles the kernels. This is the
// one place the region's mode, execution target, metric class and
// storage pick an engine (the constructor table in engine.go).
func (r *Region) BuildIndex() error {
	if r.freed.Load() {
		return ErrFreed
	}
	if !r.loaded {
		return errors.New("ssam: BuildIndex before load")
	}
	if r.mutable() != nil {
		return nil // the store is the dataset now, and it scans without an index
	}
	if r.data == nil && r.codes == nil {
		// The rows moved out of core at the last build. Codebook training
		// needs them back; the exact scan does not — the backing file is
		// the dataset, and the engine over it stands.
		if r.cfg.Mode == Quantized {
			return errors.New("ssam: rebuilding a storage-backed quantized region requires a reload")
		}
		return nil
	}
	build := r.newHostEngine
	if r.cfg.Execution == Device {
		build = r.newDeviceEngine
	}
	e, err := build()
	if err != nil {
		return err
	}
	if old := r.eng.Swap(&e); old != nil {
		(*old).close()
	}
	return nil
}

// SetChecks adjusts the accuracy/throughput knob of a built index
// without rebuilding: Checks for tree indexes, Probes for MPLSH, the
// efSearch beam width for Graph regions, and the exact re-rank depth
// for Quantized regions (all on both execution targets).
func (r *Region) SetChecks(n int) error {
	if r.freed.Load() {
		return ErrFreed
	}
	if n <= 0 {
		return fmt.Errorf("ssam: checks must be positive")
	}
	e := r.engine()
	if e == nil {
		return errNoKnob
	}
	return e.setKnob(n)
}

// checkFloat and checkBinary admit a query (or staged query) of their
// class to the region: not freed, right metric class, right width.
func (r *Region) checkFloat(q []float32) error {
	switch {
	case r.freed.Load():
		return ErrFreed
	case r.cfg.Metric == Hamming:
		return errors.New("ssam: float query on a Hamming region")
	case len(q) != r.dims:
		return fmt.Errorf("ssam: query dim %d, want %d", len(q), r.dims)
	}
	return nil
}

func (r *Region) checkBinary(q BinaryCode) error {
	switch {
	case r.freed.Load():
		return ErrFreed
	case r.cfg.Metric != Hamming:
		return errors.New("ssam: binary query on a non-Hamming region")
	case q.Dim != r.dims:
		return fmt.Errorf("ssam: query width %d, want %d", q.Dim, r.dims)
	}
	return nil
}

// ready returns the live engine for a k-nearest query on behalf of the
// exported method op, or why there is none.
func (r *Region) ready(op string, k int) (engine, error) {
	e := r.engine()
	switch {
	case r.freed.Load():
		return nil, ErrFreed
	case e == nil:
		return nil, fmt.Errorf("ssam: %s before BuildIndex", op)
	case k <= 0:
		return nil, fmt.Errorf("ssam: k must be positive")
	}
	return e, nil
}

// openExec starts the "exec" child of sp describing e. A nil sp is the
// untraced fast path: no tags are built.
func openExec(sp *obs.Span, e engine, extra ...obs.Tag) *obs.Span {
	if sp == nil {
		return nil
	}
	return sp.Start("exec", append(e.tags(), extra...)...)
}

// finish closes the exec span over an engine call, tagging the work it
// did, and publishes the call's device stats as LastStats.
func (r *Region) finish(esp *obs.Span, w work) {
	w.tag(esp)
	esp.End()
	r.mu.Lock()
	r.lastStats = w.dev
	r.mu.Unlock()
}

// run is the one single-query path, behind Search, SearchBinary and
// Exec alike. The exec span covers any wait inside the engine — on the
// simulated device concurrent queries serialize, and that queueing is
// exactly what a trace should show.
func (r *Region) run(op string, q query, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	e, err := r.ready(op, k)
	if err != nil {
		return nil, DeviceStats{}, err
	}
	esp := openExec(sp, e)
	res, w, err := e.search(q, k, esp)
	r.finish(esp, w)
	if err != nil {
		return nil, DeviceStats{}, err
	}
	return res, w.dev, nil
}

// WriteQuery stages a float query (nwrite_query).
func (r *Region) WriteQuery(q []float32) error {
	if err := r.checkFloat(q); err != nil {
		return err
	}
	r.staged = query{f: append(r.staged.f[:0], q...)}
	return nil
}

// WriteQueryBinary stages a Hamming query.
func (r *Region) WriteQueryBinary(q BinaryCode) error {
	if err := r.checkBinary(q); err != nil {
		return err
	}
	r.staged = query{b: q}
	return nil
}

// Exec runs the staged query for the k nearest neighbors (nexec).
func (r *Region) Exec(k int) error {
	if r.freed.Load() {
		return ErrFreed
	}
	if r.staged.f == nil && r.staged.b.Words == nil {
		return errors.New("ssam: Exec before WriteQuery")
	}
	res, _, err := r.run("Exec", r.staged, k, nil)
	if err != nil {
		return err
	}
	r.lastRes = res
	return nil
}

// ReadResult returns the last Exec's neighbors (nread_result).
func (r *Region) ReadResult() ([]Result, error) {
	if r.freed.Load() {
		return nil, ErrFreed
	}
	if r.lastRes == nil {
		return nil, errors.New("ssam: ReadResult before Exec")
	}
	return slices.Clone(r.lastRes), nil
}

// Search answers one query for the k nearest neighbors. Unlike the
// staged WriteQuery/Exec/ReadResult sequence it keeps no per-region
// query state, so it is safe to call from many goroutines once the
// index is built; Device execution serializes on the simulated module
// and updates LastStats per query.
func (r *Region) Search(q []float32, k int) ([]Result, error) {
	res, _, err := r.SearchStats(q, k)
	return res, err
}

// SearchStats is Search returning the query's simulated device stats
// alongside the results (zero DeviceStats for Host execution). Unlike
// Search followed by LastStats it cannot interleave with a concurrent
// query's stats, which the sharded cluster layer relies on when many
// scatter-gather queries share one shard region.
func (r *Region) SearchStats(q []float32, k int) ([]Result, DeviceStats, error) {
	return r.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording the engine execution as an
// "exec" child of sp (internal/obs tracing). A nil span is the
// untraced fast path — every obs hook degrades to a nil check, so
// callers without a sampled trace pay nothing measurable.
func (r *Region) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	if err := r.checkFloat(q); err != nil {
		return nil, DeviceStats{}, err
	}
	return r.run("Search", query{f: q}, k, sp)
}

// SearchBinary is Search for Hamming regions.
func (r *Region) SearchBinary(q BinaryCode, k int) ([]Result, error) {
	res, _, err := r.SearchBinaryStatsSpan(q, k, nil)
	return res, err
}

// SearchBinaryStats is SearchBinary returning the query's simulated
// device stats alongside the results (zero DeviceStats for Host
// execution), with the same atomicity guarantee as SearchStats.
func (r *Region) SearchBinaryStats(q BinaryCode, k int) ([]Result, DeviceStats, error) {
	return r.SearchBinaryStatsSpan(q, k, nil)
}

// SearchBinaryStatsSpan is SearchBinaryStats recording the engine
// execution as an "exec" child of sp — the Hamming counterpart of
// SearchStatsSpan, so binary queries appear in /tracez like float ones.
// A nil span is the untraced fast path.
func (r *Region) SearchBinaryStatsSpan(q BinaryCode, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	if err := r.checkBinary(q); err != nil {
		return nil, DeviceStats{}, err
	}
	return r.run("SearchBinary", query{b: q}, k, sp)
}

// SearchBatch answers one query per element of qs. On a Host Linear
// region the batch is one query-tiled scan: every vault — over storage,
// every page — is walked once for all the queries, so the dataset is
// read once per batch, not once per query (a region that has taken
// writes does the same over one snapshot), and a page that cannot be
// read fails the whole batch: a *BatchError at query 0, no results. The
// indexed and quantized Host modes fan the batch out across worker
// goroutines (their structures are read-only at query time); a
// storage-backed Quantized region and Device execution serve it a query
// at a time — the module broadcasts one query at a time, and as the
// paper notes, batching buys little on a device that already saturates
// its internal bandwidth per query. After a Device batch, LastStats
// holds the accumulated execution. A failure of one of those queries is
// returned as a *BatchError naming it; results for queries before it
// are kept in the returned slice and the stats they accumulated are
// committed.
func (r *Region) SearchBatch(qs [][]float32, k int) ([][]Result, error) {
	return r.SearchBatchSpan(qs, k, nil)
}

// SearchBatchSpan is SearchBatch recording the engine execution as an
// "exec" child of sp, tagged with the execution mode and batch size.
// A nil span is the untraced fast path.
func (r *Region) SearchBatchSpan(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	e, err := r.ready("SearchBatch", k)
	if err != nil {
		return nil, err
	}
	for _, q := range qs {
		if err := r.checkFloat(q); err != nil {
			return nil, err
		}
	}
	esp := openExec(sp, e, obs.Tag{Key: "batch", Value: len(qs)})
	out, w, failedAt, err := e.searchBatch(qs, k, esp)
	r.finish(esp, w)
	if err != nil {
		// Keep what the batch computed so far: results for queries before
		// failedAt stand, and the stats they accumulated are committed.
		return out, &BatchError{Index: failedAt, Err: err}
	}
	return out, nil
}

// QuantizedCounters is a point-in-time view of a quantized region's
// cumulative work counters, safe to read concurrently with searches.
type QuantizedCounters = knn.PQCounters

// QuantizedStats returns the quantized engine's cumulative work
// counters (table builds, code evals, re-rank evals) and whether the
// region has one. The counters back the server's /metrics series.
func (r *Region) QuantizedStats() (QuantizedCounters, bool) {
	if e, ok := r.engine().(interface {
		counters() (QuantizedCounters, bool)
	}); ok {
		return e.counters()
	}
	return QuantizedCounters{}, false
}

// TieredCounters is a point-in-time view of a storage-backed region's
// cumulative cache counters, safe to read concurrently with searches.
type TieredCounters = tier.Counters

// TieredStats returns the storage tier's cumulative counters (reads,
// bytes read, cache hits/misses, evictions, prefetch hits, stalls,
// residency) and whether the region is storage-backed. The counters
// back the server's /metrics series.
func (r *Region) TieredStats() (TieredCounters, bool) {
	if e, ok := r.engine().(interface{ store() *tier.Store }); ok && e.store() != nil {
		return e.store().Counters(), true
	}
	return TieredCounters{}, false
}

// LastStats returns the simulated device stats of the last Exec,
// Search or SearchBatch (zero for Host execution).
func (r *Region) LastStats() DeviceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastStats
}

// Device exposes the underlying simulated module (nil for Host
// execution) for benchmarking and model queries.
func (r *Region) Device() *ssamdev.Device { return r.device }

// Free releases the region (nfree). Further operations return
// ErrFreed.
func (r *Region) Free() {
	r.freed.Store(true)
	r.dropEngine()
	r.data, r.codes = nil, nil
	r.lastRes, r.staged = nil, query{}
}
