package ssam

// One engine per region. BuildIndex picks the engine once, from the
// constructor table at the bottom of this file; every later call on the
// Region (Search, SearchBatch, Exec, SetChecks, Len, Free) is mode-blind
// and goes through the interface — the nmode-once contract of the
// paper's Fig. 4 driver. The first write swaps a Linear region's engine
// for the mutable store (mutable.go), which is just one more adapter.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ssam/internal/graph"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/knn"
	"ssam/internal/lsh"
	"ssam/internal/mutate"
	"ssam/internal/obs"
	"ssam/internal/ssamdev"
	"ssam/internal/tier"
	"ssam/internal/vec"
)

// query is one search call's input, a batch of one or more queries: f
// on float regions, b on Hamming regions.
type query struct {
	f [][]float32
	b []vec.Binary
}

// len is the batch size.
func (q query) len() int { return len(q.f) + len(q.b) }

// at is the batch's query i, as a batch of one.
func (q query) at(i int) query {
	if q.b != nil {
		return query{b: q.b[i : i+1]}
	}
	return query{f: q.f[i : i+1]}
}

// work is one engine call's Work plus what only its exec span reads:
// the mutable store's generation and the rows it scanned per query.
type work struct {
	Work
	mutable bool   // served by the mutable store
	seq     uint64 // the generation it scanned
	live    int
}

// hostWork is the Work of a host engine's counters.
func hostWork(st knn.Stats) Work {
	return Work{DistEvals: st.DistEvals, Dims: st.Dims, TableBuilds: st.TableBuilds, CodeEvals: st.CodeEvals, Rescans: st.Rescans}
}

// tag records the work on the exec span — the one place the host
// counters reach the trace (the quantized engine adds adc_kept, the ADC
// pass's share of PQKept, and adc_rescan itself). A call that accounted
// no host work (a failed query, the simulated device's own kernels)
// leaves the span bare: every distance and table build adds to Dims.
func (w work) tag(sp *obs.Span) {
	if sp == nil || (w.Dims == 0 && !w.mutable) {
		return
	}
	sp.SetTag("dist_evals", w.DistEvals)
	sp.SetTag("dims", w.Dims)
	if w.TableBuilds > 0 {
		sp.SetTag("code_evals", w.CodeEvals)
		sp.SetTag("rerank_evals", w.DistEvals)
	}
	if w.mutable {
		sp.SetTag("seq", w.seq)
		sp.SetTag("live_rows", w.live)
	}
}

// engine is a built region's search structure. search answers a batch
// — a single query is a batch of one — recording its children (vault,
// rerank, descend, base) under exec, the span Region opened with tags();
// a nil exec is the untraced fast path. It reports the failing query's
// index alongside an error, with the results and work of the queries
// before it.
type engine interface {
	search(q query, k int, exec *obs.Span) (out [][]Result, w work, failedAt int, err error)
	setKnob(n int) error
	len() int
	tags() []obs.Tag
	close()
}

var errNoKnob = errors.New("ssam: SetChecks on a non-indexed region")

// noKnob and noClose are the halves of engine most adapters do not need.
type noKnob struct{}

func (noKnob) setKnob(int) error { return errNoKnob }

type noClose struct{}

func (noClose) close() {}

func hostTags(extra ...obs.Tag) []obs.Tag {
	return append([]obs.Tag{{Key: "execution", Value: "host"}}, extra...)
}

// kernelTag names the float scan kernel (vec.Tile) on the exec span of
// the engines that run it, so a trace from a slow host says why.
func kernelTag() obs.Tag { return obs.Tag{Key: "kernel", Value: vec.Kernel()} }

// linearEngine is the exact float scan, over resident rows or over a
// storage cache it then owns. Each scanned partition — a vault's slice,
// or a page, tagged tier_hit so a sampled trace tells cached from cold
// scans — shows up as a "vault" child of exec, once per call: a batch
// walks every partition once for all its queries, and a page that cannot
// be read fails the whole batch.
type linearEngine struct {
	noKnob
	e *knn.ExactScan
}

func (a linearEngine) search(q query, k int, exec *obs.Span) ([][]Result, work, int, error) {
	out, st, err := a.e.Run(q.f, k, exec)
	if err != nil {
		return nil, work{}, 0, err
	}
	return out, work{Work: hostWork(st)}, -1, nil
}

func (a linearEngine) len() int           { return a.e.N() }
func (a linearEngine) store() *tier.Store { return a.e.Store() }
func (a linearEngine) close()             { a.e.Store().Close() }

func (a linearEngine) tags() []obs.Tag {
	tags := hostTags(obs.Tag{Key: "vaults", Value: a.e.Vaults()}, kernelTag())
	if a.e.Store() != nil {
		tags = append(tags, obs.Tag{Key: "mode", Value: "tiered"})
	}
	return tags
}

// hammingEngine is the exact scan over bit-packed codes.
type hammingEngine struct {
	noKnob
	noClose
	e *knn.HammingEngine
}

// search scans once per query: Region asks for Hamming batches of one.
func (a hammingEngine) search(q query, k int, exec *obs.Span) ([][]Result, work, int, error) {
	out := make([][]Result, len(q.b))
	var w work
	for i, b := range q.b {
		var st knn.Stats
		out[i], st = a.e.SearchStatsSpan(b, k, exec)
		w.add(hostWork(st))
	}
	return out, w, -1, nil
}

func (a hammingEngine) len() int { return a.e.N() }

func (a hammingEngine) tags() []obs.Tag {
	return hostTags(obs.Tag{Key: "vaults", Value: a.e.Vaults()})
}

// indexEngine adapts the host indexes whose query is one function call
// — kd-tree forest, k-means tree, LSH tables, graph. find records any
// traversal spans under exec (only the graph has them: "descend" and
// "base"); knob retargets the accuracy/throughput parameter; batches
// fan out across the cores (the structures are read-only at query time).
type indexEngine struct {
	noClose
	find  func(q []float32, k int, exec *obs.Span) ([]Result, knn.Stats)
	knob  func(n int)
	extra func() []obs.Tag // mode tags beyond execution=host; may be nil
	rows  int
}

// search fans the queries out on up to GOMAXPROCS goroutines, summing
// their work (knn.EachQuery); a query that panics fails the batch from
// its index on. A batch of one traverses under exec on the caller's
// goroutine; a longer batch records no traversal spans, which would
// interleave.
func (a *indexEngine) search(q query, k int, exec *obs.Span) ([][]Result, work, int, error) {
	out, st, failedAt, err := knn.EachQuery(q.f, k, exec, false, a)
	return out, work{Work: hostWork(st)}, failedAt, err
}

// Query is one query's traversal, for knn.EachQuery.
func (a *indexEngine) Query(q [][]float32, k int, exec *obs.Span) ([]Result, knn.Stats, error) {
	res, st := a.find(q[0], k, exec)
	return res, st, nil
}

// untraced is find for an index that records no traversal spans.
func untraced(search func(q []float32, k int) ([]Result, knn.Stats)) func([]float32, int, *obs.Span) ([]Result, knn.Stats) {
	return func(q []float32, k int, _ *obs.Span) ([]Result, knn.Stats) { return search(q, k) }
}

func (a *indexEngine) setKnob(n int) error { a.knob(n); return nil }
func (a *indexEngine) len() int            { return a.rows }

func (a *indexEngine) tags() []obs.Tag {
	if a.extra == nil {
		return hostTags()
	}
	return hostTags(a.extra()...)
}

// pqEngine is the product-quantized scan: vault-parallel like the linear
// engine (scanned slabs are "vault" children, the exact re-rank a
// "rerank" child tagged cands; the engine itself tags exec adc_kept, the
// rows at or below the bound its pilot set, and adc_rescan when that
// bound kept too few and the pass ran again); long batches fan out
// across workers. The codes are always resident; when the full-precision
// rows sit in a storage cache, which the engine then owns, only the
// re-rank touches it — one "rerank" child per page, tagged tier_hit —
// and batches run a query at a time.
type pqEngine struct {
	e *knn.PQScan
}

func (a pqEngine) search(q query, k int, exec *obs.Span) ([][]Result, work, int, error) {
	out, st, failedAt, err := a.e.RunBatch(q.f, k, exec)
	return out, work{Work: hostWork(st)}, failedAt, err
}

func (a pqEngine) setKnob(n int) error { a.e.SetRerank(n); return nil }
func (a pqEngine) len() int            { return a.e.N() }
func (a pqEngine) store() *tier.Store  { return a.e.Store() }
func (a pqEngine) close()              { a.e.Store().Close() }

func (a pqEngine) tags() []obs.Tag {
	mode := "quantized"
	if a.e.Store() != nil {
		mode = "tiered-quantized"
	}
	return hostTags(
		obs.Tag{Key: "mode", Value: mode},
		obs.Tag{Key: "m", Value: a.e.M()},
		obs.Tag{Key: "rerank", Value: a.e.Rerank()},
		obs.Tag{Key: "vaults", Value: a.e.Vaults()},
		kernelTag())
}

// deviceEngine is the simulated SSAM module. The cycle simulator is
// stateful, so batches serialize on mu — taken inside search, after
// Region opened the exec span, so a trace shows the queueing. run is the
// on-device engine picked at build: the linear scan or one of the
// on-device indexes.
type deviceEngine struct {
	noClose
	mu    sync.Mutex
	dev   *ssamdev.Device
	run   deviceRun
	knob  func(n int)        // nil: nothing to retarget
	fault *func(i int) error // Region.batchFault, the per-query failure seam
}

// deviceRun is one query — a batch of one — on the module; floats adapts
// the float-only on-device indexes.
type deviceRun func(q query, k int) ([]Result, ssamdev.QueryStats, error)

func floats(search func([]float32, int) ([]Result, ssamdev.QueryStats, error)) deviceRun {
	return func(q query, k int) ([]Result, ssamdev.QueryStats, error) { return search(q.f[0], k) }
}

// search serves the batch one query at a time, holding the module
// throughout: it broadcasts one query at a time, and as the paper notes,
// batching buys little on a device that already saturates its internal
// bandwidth per query. A model that runs a host engine (the quantized
// index) returns that engine's counters too.
func (d *deviceEngine) search(q query, k int, _ *obs.Span) ([][]Result, work, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][]Result, q.len())
	var agg work
	for i := range out {
		var err error
		if fault := *d.fault; fault != nil {
			err = fault(i)
		}
		var st ssamdev.QueryStats
		if err == nil {
			out[i], st, err = d.run(q.at(i), k)
		}
		if err != nil {
			return out, agg, i, err
		}
		agg.add(toWork(st))
	}
	return out, agg, -1, nil
}

func (d *deviceEngine) setKnob(n int) error {
	if d.knob == nil {
		return errNoKnob
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.knob(n)
	return nil
}

func (d *deviceEngine) len() int { return d.dev.N() }

func (d *deviceEngine) tags() []obs.Tag {
	return []obs.Tag{{Key: "execution", Value: "device"}}
}

// mutableEngine is the RCU store a Linear region serves from once it
// has taken a write. It answers bit-identically to the engine it
// replaced on the same logical content; with a device attached the
// store computes the results (the cycle simulator scans a frozen
// layout) and the device prices the scan analytically.
type mutableEngine[V any] struct {
	noKnob
	*mutate.Store[V]
	pick func(query) []V
	dev  *ssamdev.Device // nil for Host execution
}

// mutableStore is what the write path (mutable.go) needs beyond engine,
// independent of the row type.
type mutableStore interface {
	engine
	Delete(id int) (uint64, bool)
	Seq() uint64
	Stats() mutate.StoreStats
	CompactOnce() mutate.CompactResult
	StartCompactor(interval time.Duration)
	setHook(fn func(CompactResult))
}

// newMutable seeds a store with rows under ids 0..n-1 — exactly the
// engine's rows, so a query racing the swap answers the same either way
// — and starts its compactor.
func newMutable[V any](st *mutate.Store[V], rows []V, pick func(query) []V, dev *ssamdev.Device) (mutableStore, error) {
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	if err := st.Seed(ids, rows); err != nil {
		return nil, err
	}
	return &mutableEngine[V]{Store: st, pick: pick, dev: dev}, nil
}

// price is the device cost of scanning rows live vectors.
func (m *mutableEngine[V]) price(rows int) Work {
	if m.dev == nil {
		return Work{}
	}
	return toWork(m.dev.ApproxLinearStats(rows))
}

// search answers the whole batch against one snapshot generation —
// batch-level consistency under concurrent writes.
func (m *mutableEngine[V]) search(q query, k int, exec *obs.Span) ([][]Result, work, int, error) {
	vs := m.pick(q)
	out, st := m.SearchBatch(vs, k, exec)
	w := work{Work: hostWork(st), mutable: true, seq: st.Seq}
	if len(vs) > 0 {
		// Every query of the batch scanned the generation's live rows:
		// st.DistEvals over the batch is exactly what the device would scan.
		w.live = st.DistEvals / len(vs)
		per := m.price(w.live)
		for range vs {
			w.add(per)
		}
	}
	return out, w, -1, nil
}

func (m *mutableEngine[V]) len() int                       { return m.Len() }
func (m *mutableEngine[V]) close()                         { m.Close() }
func (m *mutableEngine[V]) setHook(fn func(CompactResult)) { m.OnCompact = fn }

func (m *mutableEngine[V]) tags() []obs.Tag {
	exec := "host"
	if m.dev != nil {
		exec = "device"
	}
	tags := []obs.Tag{
		{Key: "execution", Value: exec},
		{Key: "mutable", Value: true},
		{Key: "vaults", Value: m.Vaults()}}
	if _, float := any(m).(*mutableEngine[[]float32]); float {
		tags = append(tags, kernelTag())
	}
	return tags
}

// toWork is one device query's Work, the host engine's it ran included.
func toWork(st ssamdev.QueryStats) Work {
	w := hostWork(st.Host)
	w.DeviceStats = DeviceStats{
		Cycles:             st.Cycles,
		Seconds:            st.Seconds,
		Instructions:       st.Instructions,
		VectorInstructions: st.VectorInsts,
		DRAMBytesRead:      st.DRAMBytesRead,
		ProcessingUnits:    st.PUs,
		StorageBytesRead:   st.StorageBytesRead,
		StorageCacheHits:   st.StorageCacheHits,
		StorageStalls:      st.StorageStalls,
	}
	return w
}

// add accumulates a batch: counters sum, the PU count is the module's.
func (w *Work) add(o Work) {
	w.Cycles += o.Cycles
	w.Seconds += o.Seconds
	w.Instructions += o.Instructions
	w.VectorInstructions += o.VectorInstructions
	w.DRAMBytesRead += o.DRAMBytesRead
	w.ProcessingUnits = o.ProcessingUnits
	w.StorageBytesRead += o.StorageBytesRead
	w.StorageCacheHits += o.StorageCacheHits
	w.StorageStalls += o.StorageStalls
	w.DistEvals += o.DistEvals
	w.Dims += o.Dims
	w.TableBuilds += o.TableBuilds
	w.CodeEvals += o.CodeEvals
	w.Rescans += o.Rescans
}

// --- the constructor table: (execution, mode, metric class, storage) → engine ---

// or returns v if positive, else def — IndexParams zero values select
// each index package's defaults.
func or(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func (ip IndexParams) pqParams() knn.PQParams {
	return knn.PQParams{M: ip.M, Sample: ip.Sample, Rerank: ip.Rerank, Seed: ip.Seed}
}

func (ip IndexParams) graphParams() graph.Params {
	p := graph.DefaultParams()
	p.M = or(ip.M, p.M)
	p.EfConstruction = or(ip.EfConstruction, p.EfConstruction)
	p.EfSearch = or(ip.EfSearch, p.EfSearch)
	if ip.Seed != 0 {
		p.Seed = ip.Seed
	}
	return p
}

// seedFloat and seedBinary are the migrations BuildIndex arms on Linear
// regions: the first write calls the armed one to build the engine's
// mutable successor (dev is nil for Host execution). The store's seed
// rows are the region's own, in place: full slice expressions, so no
// row can be appended into its neighbour.
func (r *Region) seedFloat(dev *ssamdev.Device) func() (mutableStore, error) {
	return func() (mutableStore, error) {
		d := r.dims
		rows := make([][]float32, len(r.data)/d)
		for i := range rows {
			rows[i] = r.data[i*d : (i+1)*d : (i+1)*d]
		}
		st := mutate.NewFloat(r.dims, r.cfg.Metric.toVec(), mutate.Options{Vaults: r.cfg.Vaults})
		return newMutable(st, rows, func(q query) [][]float32 { return q.f }, dev)
	}
}

func (r *Region) seedBinary(dev *ssamdev.Device) func() (mutableStore, error) {
	return func() (mutableStore, error) {
		st := mutate.NewBinary(r.dims, mutate.Options{Vaults: r.cfg.Vaults})
		return newMutable(st, r.codes, func(q query) []vec.Binary { return q.b }, dev)
	}
}

// newHostEngine builds the Host engine for the region's configuration.
func (r *Region) newHostEngine() (engine, error) {
	cfg, ip := r.cfg, r.cfg.Index
	metric := cfg.Metric.toVec()
	// A storage-backed region (float Linear or Quantized: New admits no
	// other) writes its backing file from the loaded rows and opens the
	// budgeted page cache over it; the engine built below owns the store
	// from there. nil keeps the rows resident.
	var st *tier.Store
	if cfg.Storage != nil {
		var err error
		st, err = tier.Create(cfg.Storage.Path, r.data, r.dims, knn.ResolveVaults(cfg.Vaults), tier.Options{
			BudgetBytes: cfg.Storage.BudgetBytes,
			Prefetch:    cfg.Storage.Prefetch,
		})
		if err != nil {
			return nil, err
		}
	}
	switch cfg.Mode {
	case Linear:
		switch {
		case cfg.Metric == Hamming:
			r.seed = r.seedBinary(nil)
			return hammingEngine{e: knn.NewHammingEngine(r.codes, cfg.Vaults)}, nil
		case st != nil:
			r.data = nil // rows live in the backing file now
			return linearEngine{e: knn.NewExactScan(st, metric)}, nil
		}
		r.seed = r.seedFloat(nil)
		return linearEngine{e: &knn.NewEngine(r.data, r.dims, metric, cfg.Vaults).ExactScan}, nil
	case KDTree:
		p := kdtree.DefaultParams()
		p.NumTrees, p.LeafSize = or(ip.Trees, p.NumTrees), or(ip.LeafSize, p.LeafSize)
		if ip.Seed != 0 {
			p.Seed = ip.Seed
		}
		f := kdtree.Build(r.data, r.dims, p)
		f.Checks = or(ip.Checks, f.Checks)
		return &indexEngine{rows: f.N(), find: untraced(f.SearchStats), knob: func(n int) { f.Checks = n }}, nil
	case KMeans:
		p := kmeans.DefaultParams()
		p.Branching, p.LeafSize = or(ip.Branching, p.Branching), or(ip.LeafSize, p.LeafSize)
		if ip.Seed != 0 {
			p.Seed = ip.Seed
		}
		t := kmeans.Build(r.data, r.dims, p)
		t.Checks = or(ip.Checks, t.Checks)
		return &indexEngine{rows: t.N(), find: untraced(t.SearchStats), knob: func(n int) { t.Checks = n }}, nil
	case MPLSH:
		p := lsh.DefaultParams()
		p.Tables, p.Bits = or(ip.Tables, p.Tables), or(ip.Bits, p.Bits)
		if ip.Seed != 0 {
			p.Seed = ip.Seed
		}
		x := lsh.Build(r.data, r.dims, p)
		x.Probes = or(ip.Probes, x.Probes)
		return &indexEngine{rows: x.N(), find: untraced(x.SearchStats), knob: func(n int) { x.Probes = n }}, nil
	case Graph:
		// The traversal records "descend" (upper-layer hops) and "base"
		// (layer-0 beam) children; the knob is the efSearch beam width.
		g := graph.Build(r.data, r.dims, ip.graphParams())
		return &indexEngine{rows: g.N(), find: g.SearchStatsSpan,
			knob: func(n int) { g.EfSearch = n },
			extra: func() []obs.Tag {
				return []obs.Tag{{Key: "mode", Value: "graph"}, {Key: "ef", Value: g.EfSearch}}
			}}, nil
	case Quantized:
		e, err := knn.NewPQScan(r.data, r.dims, metric, ip.pqParams(), cfg.Vaults, st)
		if err != nil {
			st.Close()
			return nil, err
		}
		if st != nil {
			r.data = nil // codes stay resident; full-precision rows do not
		}
		return pqEngine{e: e}, nil
	}
	return nil, fmt.Errorf("ssam: unknown mode %v", cfg.Mode)
}

// newDeviceEngine lays the dataset out across the simulated module's
// vaults, assembles the kernels and builds the on-device index.
func (r *Region) newDeviceEngine() (engine, error) {
	cfg, ip := r.cfg, r.cfg.Index
	devCfg := ssamdev.DefaultConfig(cfg.VectorLength)
	var dev *ssamdev.Device
	var err error
	if cfg.Metric == Hamming {
		dev, err = ssamdev.NewBinary(devCfg, r.codes)
	} else {
		dev, err = ssamdev.NewFloat(devCfg, r.data, r.dims, cfg.Metric.toVec())
	}
	if err != nil {
		return nil, err
	}
	if cfg.Storage != nil {
		// The device serves the dataset from modeled flash behind its
		// vault DRAM: the analytic storage tier prices cold reads with
		// the ann_in_ssd channel/latency/bandwidth parameters while the
		// budget sets the device-side cache fraction.
		scfg := ssamdev.DefaultStorageConfig()
		scfg.BudgetBytes = cfg.Storage.BudgetBytes
		scfg.Prefetch = cfg.Storage.Prefetch
		if err := dev.AttachStorage(scfg); err != nil {
			return nil, err
		}
	}
	d := &deviceEngine{dev: dev, fault: &r.batchFault}
	leaf := or(ip.LeafSize, 8)
	checks := or(ip.Checks, 32) // per-PU scan budget of the device tree indexes
	switch cfg.Mode {
	case Linear:
		if cfg.Metric == Hamming {
			r.seed = r.seedBinary(dev)
			d.run = func(q query, k int) ([]Result, ssamdev.QueryStats, error) { return dev.SearchBinary(q.b[0], k) }
		} else {
			r.seed = r.seedFloat(dev)
			d.run = floats(dev.Search)
		}
	case KDTree:
		t, err := dev.BuildKDTreeIndex(leaf)
		if err != nil {
			return nil, err
		}
		d.run = floats(func(q []float32, k int) ([]Result, ssamdev.QueryStats, error) { return t.Search(q, k, checks) })
		d.knob = func(n int) { checks = n }
	case KMeans:
		t, err := dev.BuildKMTreeIndex(or(ip.Branching, 4), leaf, ip.Seed+1)
		if err != nil {
			return nil, err
		}
		d.run = floats(func(q []float32, k int) ([]Result, ssamdev.QueryStats, error) { return t.Search(q, k, checks) })
		d.knob = func(n int) { checks = n }
	case MPLSH:
		bits := ip.Bits
		if bits <= 0 || bits > 12 {
			bits = 6
		}
		x, err := dev.BuildLSHIndex(or(ip.Tables, 4), bits, ip.Seed+1)
		if err != nil {
			return nil, err
		}
		if ip.Probes > 1 {
			x.MultiProbe = true
		}
		d.run = floats(x.Search)
	case Graph:
		// The graph is built on the host and attached: construction is
		// identical for both execution targets, so one build (and one
		// seed) yields the same adjacency — and therefore the same
		// neighbors — on Host and Device. The device contributes the
		// NDSEARCH-style execution model.
		g := graph.Build(r.data, r.dims, ip.graphParams())
		gi, err := dev.AttachGraphIndex(g)
		if err != nil {
			return nil, err
		}
		d.run = floats(gi.Search)
		d.knob = func(n int) { g.EfSearch = n }
	case Quantized:
		// Like Graph, the codebook is trained on the host and attached,
		// so Host and Device answer bit-identically (and share the
		// re-rank knob); the device model prices the §IV bandwidth story
		// — ADC tables resident in each vault's scratchpad, code bytes
		// streamed from vault DRAM.
		e, err := knn.NewPQScan(r.data, r.dims, cfg.Metric.toVec(), ip.pqParams(), cfg.Vaults, nil)
		if err != nil {
			return nil, err
		}
		pi, err := dev.AttachPQIndex(e)
		if err != nil {
			return nil, err
		}
		d.run = floats(pi.Search)
		d.knob = e.SetRerank
	default:
		return nil, fmt.Errorf("ssam: unknown mode %v", cfg.Mode)
	}
	r.device = dev
	return d, nil
}
