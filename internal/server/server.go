// Package server puts SSAM regions behind a socket: an HTTP/JSON
// query service on the stdlib mux that manages a registry of named
// regions, serves every search as a batch and coalesces concurrent lone
// queries into region batch searches (internal/server/batcher), sheds
// load with 503 + Retry-After once a bounded in-flight budget is
// exhausted, and exposes serving metrics at /statsz.
//
// A region created with config.sharding is the sharded kind: the
// dataset is split into N contiguous internal/cluster shards (each its
// own simulated module, each reading its range of the one slab) and every query is scatter-gathered with a
// global top-k merge, per-shard deadlines, optional hedging, and —
// in partial-result mode — degraded responses that carry the failed
// shard list instead of an error. Sharded regions send every batch, a
// lone query included, past the micro-batcher (the fan-out is the
// parallelism) and report per-shard depth and latency in /statsz.
//
// A region created with config.replicas is the replicated kind: N
// interchangeable copies of the backend (each its own region, or its
// own cluster when config.sharding is also set) behind an
// internal/replica.Group — power-of-two-choices load-aware routing,
// hedged reads across replicas, transparent failover, seq-ordered
// write fan-out, and POST .../reload for zero-downtime generational
// rebuilds (see replicated.go).
//
// The endpoint set is the paper's Fig. 4 driver interface lifted onto
// HTTP verbs:
//
//	POST   /regions                  nmalloc + nmode (create named region)
//	POST   /regions/{name}/load      nmemcpy
//	POST   /regions/{name}/build     nbuild_index
//	POST   /regions/{name}/search    nwrite_query + nexec + nread_result: a batch of one (micro-batched)
//	POST   /regions/{name}/searchbatch  explicit batch; two or more queries bypass the batcher
//	POST   /regions/{name}/upsert    insert/replace rows by id (Linear regions)
//	POST   /regions/{name}/delete    tombstone rows by id
//	POST   /regions/{name}/compact   one synchronous compaction pass
//	POST   /regions/{name}/reload    zero-downtime generational rebuild (replicated regions)
//	GET    /regions[/{name}]         registry inspection
//	DELETE /regions/{name}           nfree
//	GET    /statsz                   per-region QPS, batch sizes, queue depth, p50/p99
//	GET    /metrics                  Prometheus text exposition of the same counters
//	GET    /tracez                   recent sampled traces (bounded ring)
//	GET    /healthz                  liveness
//
// Every endpoint that takes a region or a body is a row of one table
// served by one function (serve, below): lookup, strict decode, trace,
// gate, admission, run, and one error-to-status mapping, in that order
// for every one of them; the two search routes share one run body too.
// GET /regions, /statsz, /metrics, /tracez and /healthz take neither and
// cannot fail; they are plain handlers.
//
// Observability (internal/obs) is threaded through the whole search
// path: requests are head-sampled (Options.TraceSampleEvery) or
// force-traced via the X-SSAM-Trace header, producing a span tree —
// admission wait, batch queue/exec (or fan-out/merge for sharded
// regions, with one span per shard attempt), engine execution — that
// is retained for /tracez and, for forced traces, returned inline in
// the response.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ssam"
	"ssam/internal/cluster"
	"ssam/internal/obs"
	"ssam/internal/par"
	"ssam/internal/server/batcher"
	"ssam/internal/server/wire"
)

// TraceHeader forces sampling of the request that carries it (any
// non-empty value); the response then embeds the finished trace.
const TraceHeader = "X-SSAM-Trace"

// Options tunes a Server. Zero values select the defaults.
type Options struct {
	// MaxInFlight bounds concurrently admitted search requests;
	// arrivals beyond it receive 503 + Retry-After (default 256).
	MaxInFlight int
	// MaxBatch caps the queries one micro-batcher batch holds
	// (default 64).
	MaxBatch int
	// RetryAfter is the hint returned with shed load (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (default 1 GiB; loads are big).
	// A body over it answers 413.
	MaxBodyBytes int64
	// TraceSampleEvery head-samples one search request in every N for
	// the /tracez ring (0, the default, disables ambient sampling;
	// X-SSAM-Trace requests are always traced).
	TraceSampleEvery int
	// TraceRing bounds how many finished traces /tracez retains
	// (default 128).
	TraceRing int
}

func (o *Options) fill() {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 30
	}
}

// Server is the query service. It implements http.Handler; wrap it in
// an http.Server (or httptest.Server) to serve traffic.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	sem   chan struct{} // admission tokens
	start time.Time

	tracer   *obs.Tracer
	registry *obs.Registry

	rejected atomic.Uint64
	panics   atomic.Uint64 // recovered by serve itself; par counts the rest
	draining atomic.Bool

	mu      sync.RWMutex // registry
	regions map[string]*regionEntry
}

// regionEntry is one named region: its staged dataset and the one
// backend serving it, whose kind — plain region, sharded cluster, or
// replica group — is chosen once, at create time (createRoute).
type regionEntry struct {
	name    string
	dims    int
	cfg     ssam.Config
	cfgWire wire.RegionConfig
	stats   *regionStats

	// shardOpts backs per-replica cluster construction when the region
	// is both replicated and sharded (fixed at create time).
	shardOpts cluster.Options

	be backend // fixed at create time

	mu sync.Mutex // guards load/build/free on the backend, data and freed
	// data is the dataset's one slab: every load builds a fresh one, the
	// backend adopts it (DESIGN.md, "Who owns the rows"), and nothing
	// writes it after that. Append loads and replica generations restage
	// from it. nil once loaded means the rows live only in a
	// storage-backed region's backing file.
	data  []float32
	freed bool // set by teardown: a load that looked the entry up before it left refuses it
}

// answer is a backend's reply to a search: the superset of what the
// kinds report, as it goes on the wire, with one result row per query.
type answer struct {
	Results      [][]ssam.Result
	Degraded     bool
	FailedShards []int
	Hedges       int // shard-level plus replica-level re-issues
	Replica      *int
	Gen          uint64
	Failovers    int
}

// backend is what an entry serves from. Load, Len, Describe and Free
// are called with the entry's mu held; Load may keep the rows it is
// handed without copying them. Build is called without the lock and
// takes it for as long as the kind needs (a replica group builds a
// whole generation outside the lock, so searches and scrapes keep
// flowing); Built, Search and Pending are lock-free — Built is the
// request gate, and must answer while a build holds the lock. Search
// runs a batch (a single query is a batch of one) under the request's
// "batch" span; how, and counting the batches it runs, is the kind's.
type backend interface {
	Load(rows []float32) error
	Build() error
	Built() bool
	Search(ctx context.Context, qs [][]float32, k int, sp *obs.Span) (answer, error)
	Len() int
	Pending() int // queries queued or in flight inside the backend
	Describe(info *wire.RegionInfo)
	Free()
}

// regionBackend is the plain kind: one region behind a micro-batcher.
type regionBackend struct {
	*ssam.Region
	s   *Server
	e   *regionEntry
	bat atomic.Pointer[batcher.Batcher] // non-nil once built
}

func (b *regionBackend) Load(rows []float32) error {
	if err := b.AdoptFloat32(rows); err != nil {
		return err
	}
	// A reload invalidates the built index; stop batching until the
	// caller rebuilds.
	b.setBatcher(nil)
	return nil
}

// setBatcher installs next (nil: none) and then closes the batcher it
// replaces, in that order: the built gate reads bat without the entry's
// lock, so a rebuild must never show it nil, and the old batcher serves
// until the new one is in place.
func (b *regionBackend) setBatcher(next *batcher.Batcher) {
	if old := b.bat.Swap(next); old != nil {
		old.Close()
	}
}

func (b *regionBackend) Build() error {
	b.e.mu.Lock()
	defer b.e.mu.Unlock()
	if err := b.BuildIndex(); err != nil {
		return err
	}
	if b.e.cfg.Storage != nil && b.e.cfg.Execution == ssam.Host {
		// The region let go of the slab for its backing file; so does the
		// entry, or out of core would still mean in RAM.
		b.e.data = nil
	}
	// Built Linear regions can take writes; surface compaction passes
	// in /tracez and the region counters from the moment that becomes
	// possible (the hook is installed before any write can migrate the
	// region to its mutable store).
	b.s.installCompactHook(b.e, b.Region)
	b.setBatcher(batcher.New(func(qs [][]float32, k int, sp *obs.Span) ([][]ssam.Result, error) {
		res, w, err := b.SearchBatchSpan(qs, k, sp)
		b.e.stats.recordWork(w)
		return res, err
	}, batcher.Options{
		MaxBatch: b.s.opts.MaxBatch,
		OnFlush: func(size int, _, queued time.Duration) {
			b.e.stats.recordBatch(size)
			b.e.stats.queueWait.Observe(queued.Seconds())
		},
	}))
	return nil
}

func (b *regionBackend) Built() bool { return b.bat.Load() != nil }

// Search sends a lone query to the micro-batcher for company; a longer
// batch has company already and runs on the region directly.
func (b *regionBackend) Search(ctx context.Context, qs [][]float32, k int, sp *obs.Span) (answer, error) {
	if len(qs) != 1 {
		b.e.stats.recordBatch(len(qs))
		res, w, err := b.SearchBatchSpan(qs, k, sp)
		b.e.stats.recordWork(w)
		return answer{Results: res}, err
	}
	for {
		bat := b.bat.Load()
		if bat == nil {
			return answer{}, errors.New("server: region was reloaded mid-request (rebuild first)")
		}
		res, err := bat.SearchSpan(ctx, qs[0], k, sp)
		if errors.Is(err, batcher.ErrClosed) && b.bat.Load() != bat {
			continue // a rebuild replaced the batcher after it was read: ask the new one
		}
		return answer{Results: res}, err
	}
}

func (b *regionBackend) Pending() int {
	if bat := b.bat.Load(); bat != nil {
		return bat.Pending()
	}
	return 0
}

func (b *regionBackend) Describe(*wire.RegionInfo) {}

func (b *regionBackend) Free() {
	b.setBatcher(nil)
	b.Region.Free()
}

// clusterBackend is the sharded kind: every batch scatter-gathers
// across the cluster's shards, so the micro-batcher stays out of the
// way. It has no write path (not a mutator): each shard adopts its
// range of the entry's slab at load time, and a write would have to move
// rows between ranges.
type clusterBackend struct {
	*cluster.Cluster
	e     *regionEntry
	built atomic.Bool
}

func (b *clusterBackend) Load(rows []float32) error {
	if err := b.AdoptFloat32(rows); err != nil {
		return err
	}
	b.built.Store(false)
	return nil
}

func (b *clusterBackend) Build() error {
	b.e.mu.Lock()
	defer b.e.mu.Unlock()
	if err := b.BuildIndex(); err != nil {
		return err
	}
	b.built.Store(true)
	return nil
}

func (b *clusterBackend) Built() bool { return b.built.Load() }

// Search tags the batch span a bypass: the fan-out is the parallelism.
func (b *clusterBackend) Search(_ context.Context, qs [][]float32, k int, sp *obs.Span) (answer, error) {
	sp.SetTag("bypass", true)
	b.e.stats.recordBatch(len(qs))
	resp, err := b.Cluster.Search(qs, k, sp)
	return answer{Results: resp.Results, Degraded: resp.Degraded, FailedShards: resp.FailedShards, Hedges: resp.Hedges}, err
}

func (b *clusterBackend) Pending() int {
	depth := 0
	for si := 0; si < b.Shards(); si++ {
		depth += b.ShardStat(si).InFlight
	}
	return depth
}

func (b *clusterBackend) Describe(info *wire.RegionInfo) { info.Shards = b.Shards() }

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	opts.fill()
	s := &Server{
		opts:     opts,
		mux:      http.NewServeMux(),
		sem:      make(chan struct{}, opts.MaxInFlight),
		start:    time.Now(),
		tracer:   obs.NewTracer(opts.TraceSampleEvery, opts.TraceRing),
		registry: obs.NewRegistry(),
		regions:  make(map[string]*regionEntry),
	}
	s.registerServerMetrics()
	s.mux.HandleFunc("POST /regions", serve(s, createRoute))
	s.mux.HandleFunc("GET /regions", s.handleList)
	s.mux.HandleFunc("GET /regions/{name}", serve(s, infoRoute))
	s.mux.HandleFunc("DELETE /regions/{name}", serve(s, freeRoute))
	s.mux.HandleFunc("POST /regions/{name}/load", serve(s, loadRoute))
	s.mux.HandleFunc("POST /regions/{name}/build", serve(s, buildRoute))
	s.mux.HandleFunc("POST /regions/{name}/search", serve(s, searchRoute))
	s.mux.HandleFunc("POST /regions/{name}/searchbatch", serve(s, searchBatchRoute))
	s.mux.HandleFunc("POST /regions/{name}/upsert", serve(s, upsertRoute))
	s.mux.HandleFunc("POST /regions/{name}/delete", serve(s, deleteRoute))
	s.mux.HandleFunc("POST /regions/{name}/compact", serve(s, compactRoute))
	s.mux.HandleFunc("POST /regions/{name}/reload", serve(s, reloadRoute))
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /tracez", s.handleTracez)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// StartDrain makes the server shed all subsequent search traffic with
// 503 (clients retry against a replacement) while leaving in-flight
// batches to complete. Call before http.Server.Shutdown so connection
// draining isn't stuck behind newly admitted queries.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close drains every region's batcher (queued queries still execute)
// and frees the regions. The server sheds new work from the moment Close
// begins; call after http.Server.Shutdown has returned.
func (s *Server) Close() {
	s.StartDrain()
	s.mu.Lock()
	entries := make([]*regionEntry, 0, len(s.regions))
	for _, e := range s.regions {
		entries = append(entries, e)
	}
	s.regions = make(map[string]*regionEntry)
	s.mu.Unlock()
	for _, e := range entries {
		s.teardown(e)
	}
}

// teardown frees an entry that has left the registry, on DELETE and
// Close alike. The metric series go first: scrape callbacks read the
// backend's counters, and Unregister synchronizes with any render in
// progress (both hold the registry lock). Then, under the entry's lock,
// the entry is marked freed and its backend freed.
func (s *Server) teardown(e *regionEntry) {
	s.registry.Unregister(obs.Labels{"region": e.name})
	e.mu.Lock()
	defer e.mu.Unlock()
	e.freed = true
	e.be.Free()
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// lookup finds the entry a request names.
func (s *Server) lookup(name string) (*regionEntry, error) {
	s.mu.RLock()
	e := s.regions[name]
	s.mu.RUnlock()
	if e == nil {
		return nil, missing{fmt.Errorf("no region %q", name)}
	}
	return e, nil
}

// admit takes an admission token, which the caller gives back, or
// sheds the request.
func (s *Server) admit(w http.ResponseWriter) error {
	if s.draining.Load() {
		return s.shed(w, "server draining")
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
		return s.shed(w, "server at capacity (%d in flight)", s.opts.MaxInFlight)
	}
}

// shed counts the refusal and sets Retry-After on the response; the
// overloaded error it returns is what status answers 503 for.
func (s *Server) shed(w http.ResponseWriter, format string, args ...any) error {
	s.rejected.Add(1)
	secs := int(s.opts.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	return overloaded(fmt.Sprintf(format, args...))
}

func toShardingOptions(sc *wire.ShardingConfig) cluster.Options {
	return cluster.Options{
		Shards:        sc.Shards,
		ShardDeadline: time.Duration(sc.DeadlineMs * float64(time.Millisecond)),
		HedgeAfter:    time.Duration(sc.HedgeMs * float64(time.Millisecond)),
		AllowPartial:  sc.AllowPartial,
	}
}

func toConfig(wc wire.RegionConfig) (ssam.Config, error) {
	var cfg ssam.Config
	var err error
	if wc.Metric != "" {
		if cfg.Metric, err = ssam.ParseMetric(wc.Metric); err != nil {
			return cfg, err
		}
	}
	if cfg.Metric == ssam.Hamming {
		return cfg, errors.New("hamming regions are not servable over the wire (no JSON binary-code format)")
	}
	if wc.Mode != "" {
		if cfg.Mode, err = ssam.ParseMode(wc.Mode); err != nil {
			return cfg, err
		}
	}
	if wc.Execution != "" {
		if cfg.Execution, err = ssam.ParseExecution(wc.Execution); err != nil {
			return cfg, err
		}
	}
	cfg.VectorLength = wc.VectorLength
	cfg.Vaults = wc.Vaults
	cfg.Index = ssam.IndexParams(wc.Index)
	if wc.Storage != nil {
		cfg.Storage = &ssam.Storage{
			Path:        wc.Storage.Path,
			BudgetBytes: wc.Storage.BudgetBytes,
			Prefetch:    wc.Storage.Prefetch,
		}
	}
	return cfg, nil
}

func toNeighbors(res []ssam.Result) []wire.Neighbor {
	out := make([]wire.Neighbor, len(res))
	for i, r := range res {
		out[i] = wire.Neighbor{ID: r.ID, Distance: r.Dist}
	}
	return out
}

// --- the control plane: Fig. 4's calls other than the queries ---

// createRoute is POST /regions (nmalloc + nmode), the one route with no
// region to look up. A configuration the engines refuse is a bad request.
var createRoute = route[wire.CreateRegionRequest, wire.RegionInfo]{
	decode: wire.DecodeCreateRegion,
	code:   http.StatusCreated,
	run: func(_ context.Context, s *Server, _ *regionEntry, req wire.CreateRegionRequest, _ *obs.Span, _ time.Time) (wire.RegionInfo, error) {
		cfg, err := toConfig(req.Config)
		e := &regionEntry{name: req.Name, dims: req.Dims, cfg: cfg, cfgWire: req.Config}
		if err == nil {
			e.be, err = s.newBackend(e, req)
		}
		if err != nil {
			return wire.RegionInfo{}, badRequest{err}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, dup := s.regions[req.Name]; dup {
			e.be.Free()
			return wire.RegionInfo{}, conflict{fmt.Errorf("region %q already exists", req.Name)}
		}
		// Metric series are registered only after the dup check, so a
		// rejected duplicate never leaves series behind (registering twice
		// for one name would panic the registry).
		e.stats = newRegionStats(s.registry, req.Name)
		s.registerRegionMetrics(e)
		s.regions[req.Name] = e
		return e.info(), nil
	},
}

// newBackend picks the entry's backend kind from the create request —
// the one place the kind is decided.
func (s *Server) newBackend(e *regionEntry, req wire.CreateRegionRequest) (backend, error) {
	switch {
	case req.Config.Replicas != nil:
		return s.newGroupBackend(e, req)
	case req.Config.Sharding != nil:
		c, err := cluster.New(e.dims, e.cfg, toShardingOptions(req.Config.Sharding))
		if err != nil {
			return nil, err
		}
		return &clusterBackend{Cluster: c, e: e}, nil
	}
	r, err := ssam.New(e.dims, e.cfg)
	if err != nil {
		return nil, err
	}
	return &regionBackend{Region: r, s: s, e: e}, nil
}

func (e *regionEntry) info() wire.RegionInfo {
	info := wire.RegionInfo{
		Name: e.name, Dims: e.dims, Len: e.be.Len(), Built: e.be.Built(), Config: e.cfgWire,
	}
	e.be.Describe(&info)
	return info
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	entries := make([]*regionEntry, 0, len(s.regions))
	for _, e := range s.regions {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	infos := make([]wire.RegionInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.lockedInfo())
	}
	writeJSON(w, http.StatusOK, infos)
}

// lockedInfo is info read under the entry's lock.
func (e *regionEntry) lockedInfo() wire.RegionInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.info()
}

var infoRoute = route[struct{}, wire.RegionInfo]{
	run: func(_ context.Context, _ *Server, e *regionEntry, _ struct{}, _ *obs.Span, _ time.Time) (wire.RegionInfo, error) {
		return e.lockedInfo(), nil
	},
}

// loadRoute is POST /regions/{name}/load (nmemcpy). Every load stages a
// fresh slab, sized exactly, for the backend to adopt: the one it
// replaces may still be serving, so it is never written again.
var loadRoute = route[wire.LoadRequest, wire.RegionInfo]{
	decode: wire.DecodeLoad,
	check:  func(e *regionEntry, req wire.LoadRequest) error { return widths(e, "vector", req.Vectors) },
	run: func(_ context.Context, _ *Server, e *regionEntry, req wire.LoadRequest, _ *obs.Span, _ time.Time) (wire.RegionInfo, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.freed {
			return wire.RegionInfo{}, missing{fmt.Errorf("region %q was deleted", e.name)}
		}
		var kept []float32
		if req.Append {
			if e.data == nil && e.be.Len() > 0 {
				return wire.RegionInfo{}, conflict{fmt.Errorf("region %q: rows live in the backing file; reload with append=false", e.name)}
			}
			kept = e.data
		}
		data := make([]float32, len(kept), len(kept)+len(req.Vectors)*e.dims)
		copy(data, kept)
		for _, v := range req.Vectors {
			data = append(data, v...)
		}
		if err := e.be.Load(data); err != nil {
			return wire.RegionInfo{}, err
		}
		e.data = data
		return e.info(), nil
	},
}

// buildRoute is POST /regions/{name}/build (nbuild_index). An index the
// engine will not build over the loaded rows conflicts with that state.
var buildRoute = route[struct{}, wire.RegionInfo]{
	run: func(_ context.Context, _ *Server, e *regionEntry, _ struct{}, _ *obs.Span, _ time.Time) (wire.RegionInfo, error) {
		if err := e.be.Build(); err != nil {
			return wire.RegionInfo{}, conflict{err}
		}
		return e.lockedInfo(), nil
	},
}

// freeRoute is DELETE /regions/{name} (nfree). The entry leaves the
// registry only if it is still the one looked up: a racing DELETE may
// have taken it, and a create may have reused the name since.
var freeRoute = route[struct{}, struct{}]{
	code: http.StatusNoContent,
	run: func(_ context.Context, s *Server, e *regionEntry, _ struct{}, _ *obs.Span, _ time.Time) (struct{}, error) {
		s.mu.Lock()
		if s.regions[e.name] != e {
			s.mu.Unlock()
			return struct{}{}, missing{fmt.Errorf("no region %q", e.name)}
		}
		delete(s.regions, e.name)
		s.mu.Unlock()
		s.teardown(e)
		return struct{}{}, nil
	},
}

// --- request pipeline ---

// route is one row of the request table: what differs between the
// endpoints that take a region or a body (DESIGN.md §6).
type route[Req, Resp any] struct {
	trace    string                        // root span name; "" leaves the route untraced
	tag      func(Req) obs.Tag             // the request's own tag, beside region=<name>
	decode   func([]byte) (Req, error)     // strict wire decoder; nil: the route takes no body
	check    func(*regionEntry, Req) error // what only the region can refuse: a wrong width
	gate     func(*regionEntry) error      // why the region cannot take the request now; nil: nothing
	admitted bool                          // run holds one of the server's in-flight tokens
	code     int                           // success status; 0 is 200
	run      func(ctx context.Context, s *Server, e *regionEntry, req Req, root *obs.Span, start time.Time) (Resp, error)
	inline   func(*Resp, *obs.TraceData) // puts a forced trace in the response; nil: /tracez only
}

// serve is the request path, written once: lookup (404; skipped, with a
// nil entry, where the pattern names no region) → decode and check
// (400) → open the trace, whose tags come from the decoded request →
// gate (409) → admission (503) → run → status(err).
//
// The gate is a lock-free read ahead of admission, so a request that is
// going to be refused never occupies a slot — and a region mid-build,
// whose Build holds the entry's lock for a whole BuildIndex, cannot sit
// on the tokens every other region needs. Every exit, a panic included,
// leaves through the one deferred function: the token goes back, the
// trace is finished exactly once, and only then is anything written to
// w, which is why a recovered panic can still answer.
func serve[Req, Resp any](s *Server, rt route[Req, Resp]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		forced := r.Header.Get(TraceHeader) != ""
		var (
			e    *regionEntry
			req  Req
			tr   *obs.Trace
			root *obs.Span
			resp Resp
			err  error
			held bool
		)
		defer func() {
			if p := recover(); p != nil {
				s.panics.Add(1)
				err = &par.PanicError{Value: p, Stack: debug.Stack()}
			}
			// A panic here or on a goroutine the route waited on (a batch, a
			// vault scan, an attempt, a page read) is answered as a 500.
			if err != nil {
				if pe := (*par.PanicError)(nil); errors.As(err, &pe) {
					log.Printf("server: panic serving %s: %v\n%s", r.URL.Path, pe.Value, pe.Stack)
					root.SetTag("panic", true)
				}
			}
			if held {
				<-s.sem
			}
			td := s.tracer.Finish(tr)
			if err != nil {
				if code := status(r.Context(), err); code != 0 {
					writeJSON(w, code, wire.ErrorResponse{Error: err.Error()})
				}
				return
			}
			if forced && rt.inline != nil {
				rt.inline(&resp, td)
			}
			if rt.code == http.StatusNoContent {
				w.WriteHeader(rt.code)
				return
			}
			writeJSON(w, cmp.Or(rt.code, http.StatusOK), &resp)
		}()
		if name := r.PathValue("name"); name != "" {
			if e, err = s.lookup(name); err != nil {
				return
			}
		}
		if rt.decode != nil {
			var body []byte
			if body, err = io.ReadAll(r.Body); err == nil {
				if req, err = rt.decode(body); err == nil && rt.check != nil {
					err = rt.check(e, req)
				}
			}
			if err != nil {
				err = badRequest{err}
				return
			}
		}
		if rt.trace != "" {
			tags := append(make([]obs.Tag, 0, 2), obs.Tag{Key: "region", Value: e.name})
			if rt.tag != nil {
				tags = append(tags, rt.tag(req))
			}
			tr = s.tracer.Trace(rt.trace, forced, tags...)
			root = tr.Root()
		}
		if rt.gate != nil {
			err = rt.gate(e)
		}
		if err == nil && rt.admitted {
			asp := root.Start("admission")
			err = s.admit(w)
			asp.End()
			held = err == nil
		}
		if err == nil {
			resp, err = rt.run(r.Context(), s, e, req, root, start)
		}
	}
}

// The classes of refusal status reads, beside overloaded.
type (
	missing    struct{ error } // no region of that name, or not any more
	badRequest struct{ error } // the client's to fix: the body, or create's configuration
	conflict   struct{ error } // well formed, but the region's state or kind refuses it
)

// Unwrap lets status see the ssam.ErrFreed of a build or compaction
// that lost a race with DELETE.
func (c conflict) Unwrap() error { return c.error }

// Unwrap lets status see a body cut off at Options.MaxBodyBytes.
func (b badRequest) Unwrap() error { return b.error }

// Error names the cap a body over it ran into, so the client knows to
// send smaller chunks rather than fix its encoding.
func (b badRequest) Error() string {
	if tl := (*http.MaxBytesError)(nil); errors.As(b.error, &tl) {
		return fmt.Sprintf("request body over the server's %d-byte limit: send it in smaller chunks", tl.Limit)
	}
	return b.error.Error()
}

// overloaded is the error of a request shed at admission.
type overloaded string

func (o overloaded) Error() string { return string(o) }

// status is the one table from an error to its HTTP status. Lookup and
// decode refuse with missing and badRequest, as create refuses a
// configuration, and a body that ran past Options.MaxBodyBytes is too
// large rather than malformed; anything else a route returns is a
// conflict with the region's state or kind, a region freed under the
// request, or the server's own fault. 0 means write nothing: the client
// has gone and there is no one to tell.
func status(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, ctx.Err()):
		return 0
	case errors.As(err, new(missing)), errors.Is(err, ssam.ErrFreed):
		return http.StatusNotFound
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	case errors.As(err, new(overloaded)):
		return http.StatusServiceUnavailable
	case errors.As(err, new(conflict)), errors.Is(err, ssam.ErrImmutableEngine):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// widths refuses the first of a request's vectors whose width is not
// the region's.
func widths(e *regionEntry, what string, vs [][]float32) error {
	for i, v := range vs {
		if len(v) != e.dims {
			return fmt.Errorf("%s %d has dim %d, want %d", what, i, len(v), e.dims)
		}
	}
	return nil
}

// builtGate refuses a region with no built index. Built is an atomic
// read on every backend kind, so the gate never waits for a build.
func builtGate(e *regionEntry) error {
	if !e.be.Built() {
		return conflict{fmt.Errorf("region %q has no built index (POST .../build first)", e.name)}
	}
	return nil
}

var searchRoute = route[wire.SearchRequest, wire.SearchResponse]{
	trace:  "search",
	tag:    func(req wire.SearchRequest) obs.Tag { return obs.Tag{Key: "k", Value: req.K} },
	decode: wire.DecodeSearch,
	check: func(e *regionEntry, req wire.SearchRequest) error {
		if len(req.Query) != e.dims {
			return fmt.Errorf("query dim %d, want %d", len(req.Query), e.dims)
		}
		return nil
	},
	gate:     builtGate,
	admitted: true,
	run: func(ctx context.Context, _ *Server, e *regionEntry, req wire.SearchRequest, root *obs.Span, start time.Time) (wire.SearchResponse, error) {
		ans, err := search(ctx, e, [][]float32{req.Query}, req.K, root, start)
		if err != nil {
			return wire.SearchResponse{}, err
		}
		return wire.SearchResponse{
			Results: toNeighbors(ans.Results[0]), Degraded: ans.Degraded, FailedShards: ans.FailedShards,
			Hedges: ans.Hedges, Replica: ans.Replica, Gen: ans.Gen, Failovers: ans.Failovers,
		}, nil
	},
	inline: func(resp *wire.SearchResponse, td *obs.TraceData) { resp.Trace = td },
}

var searchBatchRoute = route[wire.SearchBatchRequest, wire.SearchBatchResponse]{
	trace:    "searchbatch",
	tag:      func(req wire.SearchBatchRequest) obs.Tag { return obs.Tag{Key: "k", Value: req.K} },
	decode:   wire.DecodeSearchBatch,
	check:    func(e *regionEntry, req wire.SearchBatchRequest) error { return widths(e, "query", req.Queries) },
	gate:     builtGate,
	admitted: true,
	run: func(ctx context.Context, _ *Server, e *regionEntry, req wire.SearchBatchRequest, root *obs.Span, start time.Time) (wire.SearchBatchResponse, error) {
		ans, err := search(ctx, e, req.Queries, req.K, root, start)
		if err != nil {
			return wire.SearchBatchResponse{}, err
		}
		rows := make([][]wire.Neighbor, len(ans.Results))
		for i, res := range ans.Results {
			rows[i] = toNeighbors(res)
		}
		return wire.SearchBatchResponse{
			Results: rows, Degraded: ans.Degraded, FailedShards: ans.FailedShards,
			Hedges: ans.Hedges, Replica: ans.Replica, Gen: ans.Gen, Failovers: ans.Failovers,
		}, nil
	},
	inline: func(resp *wire.SearchBatchResponse, td *obs.TraceData) { resp.Trace = td },
}

// search is the run body both search routes share, each converting its
// answer to its own wire shape: the batch runs under a "batch" span
// tagged with its size.
func search(ctx context.Context, e *regionEntry, qs [][]float32, k int, root *obs.Span, start time.Time) (answer, error) {
	bsp := root.Start("batch")
	bsp.SetTag("size", len(qs))
	ans, err := e.be.Search(ctx, qs, k, bsp)
	bsp.End()
	if err != nil {
		return answer{}, err
	}
	if ans.Degraded {
		e.stats.degraded.Inc()
	}
	e.stats.recordQueries(len(qs), time.Since(start))
	return ans, nil
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	entries := make(map[string]*regionEntry, len(s.regions))
	for name, e := range s.regions {
		entries[name] = e
	}
	s.mu.RUnlock()

	resp := wire.StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      len(s.sem),
		MaxInFlight:   s.opts.MaxInFlight,
		Rejected:      s.rejected.Load(),
		Draining:      s.draining.Load(),
		ScanKernel:    ssam.ScanKernel(),
		Regions:       make(map[string]wire.RegionStats, len(entries)),
	}
	for name, e := range entries {
		rs := e.stats.snapshot(e.be.Pending())
		// The per-kind blocks are different instruments, so they stay
		// per-kind.
		switch b := e.be.(type) {
		case *clusterBackend:
			for _, st := range b.ShardStats() {
				rs.Shards = append(rs.Shards, wire.ShardStats{
					Shard:        st.Shard,
					Len:          st.Len,
					InFlight:     st.InFlight,
					Queries:      st.Queries,
					Failures:     st.Failures,
					Timeouts:     st.Timeouts,
					Hedges:       st.Hedges,
					AvgLatencyMs: float64(st.AvgLatency) / float64(time.Millisecond),
				})
			}
		case *groupBackend:
			rs.Replication = toWireReplication(b.Stats())
		case *regionBackend:
			if mst, ok := b.MutationStats(); ok {
				rs.Mutation = toWireMutation(mst)
			}
			if st := e.stats; st.pqTables != nil && b.Built() {
				rs.Quantized = &wire.QuantizedStats{
					TableBuilds: st.pqTables.Value(),
					CodeEvals:   st.pqCodes.Value(),
					RerankEvals: st.pqReranks.Value(),
					Rescans:     st.pqRescans.Value(),
				}
			}
			if tst, ok := b.TieredStats(); ok {
				rs.Tiered = &wire.TieredStats{
					Reads:         tst.Reads,
					BytesRead:     tst.BytesRead,
					CacheHits:     tst.CacheHits,
					CacheMisses:   tst.CacheMisses,
					Evictions:     tst.Evictions,
					PrefetchHits:  tst.PrefetchHits,
					Stalls:        tst.Stalls,
					ResidentBytes: tst.ResidentBytes,
					BudgetBytes:   tst.BudgetBytes,
				}
			}
		}
		resp.Regions[name] = rs
	}
	writeJSON(w, http.StatusOK, resp)
}
