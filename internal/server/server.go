// Package server puts SSAM regions behind a socket: an HTTP/JSON
// query service on the stdlib mux that manages a registry of named
// regions, coalesces concurrent single-query requests into region
// batch searches (internal/server/batcher), sheds load with 503 +
// Retry-After once a bounded in-flight budget is exhausted, and
// exposes serving metrics at /statsz.
//
// A region created with config.sharding is the sharded kind: the
// dataset is partitioned across N internal/cluster shards (each its
// own simulated module) and every query is scatter-gathered with a
// global top-k merge, per-shard deadlines, optional hedging, and —
// in partial-result mode — degraded responses that carry the failed
// shard list instead of an error. Sharded regions bypass the
// micro-batcher (the fan-out itself is the parallelism) and report
// per-shard depth and latency in /statsz.
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
//	POST   /regions/{name}/search    nwrite_query + nexec + nread_result (micro-batched)
//	POST   /regions/{name}/searchbatch  explicit batch, bypasses the batcher
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
// The six POST endpoints from search to reload are rows of one table
// served by one function (serve, below): lookup, strict decode, trace,
// gate, admission, run, and one error-to-status mapping, in that order
// for every one of them.
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
	draining atomic.Bool

	mu      sync.RWMutex // registry
	regions map[string]*regionEntry
}

// regionEntry is one named region: its staged dataset and the one
// backend serving it, whose kind — plain region, sharded cluster, or
// replica group — is chosen once, at create time (handleCreate).
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

	mu   sync.Mutex // guards load/build/free on the backend and data
	data []float32  // accumulated rows, so Append loads can restage
}

// answer is a backend's reply to a search: the superset of what the
// kinds report, as it goes on the wire. Search fills Results,
// SearchBatch fills Batch.
type answer struct {
	Results      []ssam.Result
	Batch        [][]ssam.Result
	Degraded     bool
	FailedShards []int
	Hedges       int // shard-level plus replica-level re-issues
	Replica      *int
	Gen          uint64
	Failovers    int
}

// backend is what an entry serves from. Load, Len, Describe and Free
// are called with the entry's mu held; Build is called without it and
// takes it for as long as the kind needs (a replica group builds a
// whole generation outside the lock, so searches and scrapes keep
// flowing); Built, Search, SearchBatch and Pending are lock-free —
// Built is the request gate, and must answer while a build holds the
// lock. Search opens the request's "batch" stage under sp itself, since
// whether the micro-batcher is bypassed is the backend's business;
// SearchBatch runs under the caller's.
type backend interface {
	Load(rows []float32) error
	Build() error
	Built() bool
	Search(ctx context.Context, q []float32, k int, sp *obs.Span) (answer, error)
	SearchBatch(qs [][]float32, k int, sp *obs.Span) (answer, error)
	Len() int
	Pending() int // queries queued or in flight inside the backend
	Describe(info *wire.RegionInfo)
	Free()
}

// bypass opens the "batch" stage of a query that skips the
// micro-batcher: the fan-out (sharded) or the routing (replicated) is
// the parallelism, so the stage is a size-1 bypass holding those spans.
func bypass(sp *obs.Span) *obs.Span {
	return sp.Start("batch", obs.Tag{Key: "bypass", Value: true}, obs.Tag{Key: "size", Value: 1})
}

// regionBackend is the plain kind: one region behind a micro-batcher.
type regionBackend struct {
	*ssam.Region
	s   *Server
	e   *regionEntry
	bat atomic.Pointer[batcher.Batcher] // non-nil once built
}

func (b *regionBackend) Load(rows []float32) error {
	if err := b.LoadFloat32(rows); err != nil {
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
	// Built Linear regions can take writes; surface compaction passes
	// in /tracez and the region counters from the moment that becomes
	// possible (the hook is installed before any write can migrate the
	// region to its mutable store).
	b.s.installCompactHook(b.e, b.Region)
	stats := b.e.stats
	b.setBatcher(batcher.New(b.SearchBatchSpan, batcher.Options{
		MaxBatch: b.s.opts.MaxBatch,
		OnFlush: func(size int, _, queued time.Duration) {
			stats.recordBatch(size)
			stats.queueWait.Observe(queued.Seconds())
		},
	}))
	return nil
}

func (b *regionBackend) Built() bool { return b.bat.Load() != nil }

func (b *regionBackend) Search(ctx context.Context, q []float32, k int, sp *obs.Span) (answer, error) {
	for {
		bat := b.bat.Load()
		if bat == nil {
			return answer{}, errors.New("server: region was reloaded mid-request (rebuild first)")
		}
		bsp := sp.Start("batch")
		res, err := bat.SearchSpan(ctx, q, k, bsp)
		bsp.End()
		if errors.Is(err, batcher.ErrClosed) && b.bat.Load() != bat {
			continue // a rebuild replaced the batcher after it was read: ask the new one
		}
		return answer{Results: res}, err
	}
}

func (b *regionBackend) SearchBatch(qs [][]float32, k int, sp *obs.Span) (answer, error) {
	res, err := b.SearchBatchSpan(qs, k, sp)
	return answer{Batch: res}, err
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

// clusterBackend is the sharded kind: every query scatter-gathers
// across the cluster's shards, so the micro-batcher stays out of the
// way. It has no write path (not a mutator): the partitioner bakes row
// placement at load time.
type clusterBackend struct {
	*cluster.Cluster
	e     *regionEntry
	built atomic.Bool
}

func (b *clusterBackend) Load(rows []float32) error {
	if err := b.LoadFloat32(rows); err != nil {
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

func (b *clusterBackend) Search(_ context.Context, q []float32, k int, sp *obs.Span) (answer, error) {
	bsp := bypass(sp)
	resp, err := b.SearchTraced(q, k, bsp)
	bsp.End()
	return answer{Results: resp.Results, Degraded: resp.Degraded, FailedShards: resp.FailedShards, Hedges: resp.Hedges}, err
}

func (b *clusterBackend) SearchBatch(qs [][]float32, k int, sp *obs.Span) (answer, error) {
	resp, err := b.SearchBatchTraced(qs, k, sp)
	return answer{Batch: resp.Results, Degraded: resp.Degraded, FailedShards: resp.FailedShards, Hedges: resp.Hedges}, err
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
	s.mux.HandleFunc("POST /regions", s.handleCreate)
	s.mux.HandleFunc("GET /regions", s.handleList)
	s.mux.HandleFunc("GET /regions/{name}", s.handleInfo)
	s.mux.HandleFunc("DELETE /regions/{name}", s.handleFree)
	s.mux.HandleFunc("POST /regions/{name}/load", s.handleLoad)
	s.mux.HandleFunc("POST /regions/{name}/build", s.handleBuild)
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
		s.registry.Unregister(obs.Labels{"region": e.name})
		e.mu.Lock()
		e.be.Free()
		e.mu.Unlock()
	}
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody reads the request body through one of the strict wire
// decoders (which reject unknown fields, trailing garbage, and
// non-finite floats — see internal/server/wire/decode.go), answering
// 400 itself when there is nothing to hand back.
func decodeBody[Req any](w http.ResponseWriter, r *http.Request, decode func([]byte) (Req, error)) (req Req, ok bool) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading request body: %v", err)
		return req, false
	}
	if req, err = decode(data); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return req, false
	}
	return req, true
}

func (s *Server) entry(w http.ResponseWriter, r *http.Request) *regionEntry {
	name := r.PathValue("name")
	s.mu.RLock()
	e := s.regions[name]
	s.mu.RUnlock()
	if e == nil {
		writeErr(w, http.StatusNotFound, "no region %q", name)
	}
	return e
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

func toShardingOptions(sc *wire.ShardingConfig) (cluster.Options, error) {
	part, err := cluster.ParsePartition(sc.Partition)
	if err != nil {
		return cluster.Options{}, err
	}
	return cluster.Options{
		Shards:        sc.Shards,
		Partition:     part,
		ShardDeadline: time.Duration(sc.DeadlineMs * float64(time.Millisecond)),
		HedgeAfter:    time.Duration(sc.HedgeMs * float64(time.Millisecond)),
		AllowPartial:  sc.AllowPartial,
	}, nil
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
	cfg.Workers = wc.Workers
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

// --- handlers ---

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody(w, r, wire.DecodeCreateRegion)
	if !ok {
		return
	}
	cfg, err := toConfig(req.Config)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	e := &regionEntry{
		name: req.Name, dims: req.Dims, cfg: cfg, cfgWire: req.Config,
	}
	if e.be, err = s.newBackend(e, req); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	if _, dup := s.regions[req.Name]; dup {
		s.mu.Unlock()
		e.be.Free()
		writeErr(w, http.StatusConflict, "region %q already exists", req.Name)
		return
	}
	// Metric series are registered only after the dup check, so a
	// rejected duplicate never leaves series behind (registering twice
	// for one name would panic the registry).
	e.stats = newRegionStats(s.registry, req.Name)
	s.registerRegionMetrics(e)
	s.regions[req.Name] = e
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, e.info())
}

// newBackend picks the entry's backend kind from the create request —
// the one place the kind is decided.
func (s *Server) newBackend(e *regionEntry, req wire.CreateRegionRequest) (backend, error) {
	switch {
	case req.Config.Replicas != nil:
		return s.newGroupBackend(e, req)
	case req.Config.Sharding != nil:
		opts, err := toShardingOptions(req.Config.Sharding)
		if err != nil {
			return nil, err
		}
		c, err := cluster.New(e.dims, e.cfg, opts)
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
		e.mu.Lock()
		infos = append(infos, e.info())
		e.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	e.mu.Lock()
	info := e.info()
	e.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	req, ok := decodeBody(w, r, wire.DecodeLoad)
	if !ok {
		return
	}
	for i, v := range req.Vectors {
		if len(v) != e.dims {
			writeErr(w, http.StatusBadRequest, "vector %d has dim %d, want %d", i, len(v), e.dims)
			return
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !req.Append {
		e.data = e.data[:0]
	}
	for _, v := range req.Vectors {
		e.data = append(e.data, v...)
	}
	if err := e.be.Load(e.data); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	if err := e.be.Build(); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	e.mu.Lock()
	info := e.info()
	e.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleFree(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	e := s.regions[name]
	delete(s.regions, name)
	s.mu.Unlock()
	if e == nil {
		writeErr(w, http.StatusNotFound, "no region %q", name)
		return
	}
	// Drop the metric series before freeing: scrape callbacks read the
	// backend's counters, and Unregister synchronizes with any render
	// in progress (both hold the registry lock).
	s.registry.Unregister(obs.Labels{"region": name})
	e.mu.Lock()
	e.be.Free()
	e.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// --- request pipeline ---

// route is one row of the request table: what differs between the
// endpoints under /regions/{name}/ that do work (DESIGN.md §6).
type route[Req, Resp any] struct {
	trace    string                        // root span name; "" leaves the route untraced
	tag      func(Req) obs.Tag             // the request's own tag, beside region=<name>
	decode   func([]byte) (Req, error)     // strict wire decoder; nil: the route takes no body
	check    func(*regionEntry, Req) error // what only the region can refuse: a wrong width
	gate     func(*regionEntry) error      // why the region cannot take the request now
	admitted bool                          // run holds one of the server's in-flight tokens
	run      func(ctx context.Context, e *regionEntry, req Req, root *obs.Span, start time.Time) (Resp, error)
	inline   func(*Resp, *obs.TraceData) // puts a forced trace in the response; nil: /tracez only
}

// serve is the request path, written once: lookup (404) → decode and
// check (400) → open the trace, whose tags come from the decoded
// request → gate (409) → admission (503) → run → status(err).
//
// The gate is a lock-free read ahead of admission, so a request that is
// going to be refused never occupies a slot — and a region mid-build,
// whose Build holds the entry's lock for a whole BuildIndex, cannot sit
// on the tokens every other region needs. Once the trace is open every
// exit, a panic included, leaves through the one deferred function: the
// token goes back, the trace is finished exactly once, and only then is
// anything written to w, which is why a recovered panic can still answer.
func serve[Req, Resp any](s *Server, rt route[Req, Resp]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		e := s.entry(w, r)
		if e == nil {
			return
		}
		var req Req
		if rt.decode != nil {
			var ok bool
			if req, ok = decodeBody(w, r, rt.decode); !ok {
				return
			}
			if rt.check != nil {
				if err := rt.check(e, req); err != nil {
					writeErr(w, http.StatusBadRequest, "%v", err)
					return
				}
			}
		}
		forced := r.Header.Get(TraceHeader) != ""
		var tr *obs.Trace
		if rt.trace != "" {
			tags := append(make([]obs.Tag, 0, 2), obs.Tag{Key: "region", Value: e.name})
			if rt.tag != nil {
				tags = append(tags, rt.tag(req))
			}
			tr = s.tracer.Trace(rt.trace, forced, tags...)
		}
		root := tr.Root()
		var (
			resp Resp
			err  error
			held bool
		)
		defer func() {
			if p := recover(); p != nil {
				log.Printf("server: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
				root.SetTag("panic", true)
				err = fmt.Errorf("panic: %v", p)
			}
			if held {
				<-s.sem
			}
			td := s.tracer.Finish(tr)
			if err != nil {
				if code := status(r.Context(), err); code != 0 {
					writeErr(w, code, "%v", err)
				}
				return
			}
			if forced && rt.inline != nil {
				rt.inline(&resp, td)
			}
			writeJSON(w, http.StatusOK, &resp)
		}()
		if err = rt.gate(e); err != nil {
			return
		}
		if rt.admitted {
			asp := root.Start("admission")
			err = s.admit(w)
			asp.End()
			if err != nil {
				return
			}
			held = true
		}
		resp, err = rt.run(r.Context(), e, req, root, start)
	}
}

// conflict marks an error as a sequencing refusal: the request is well
// formed, but the region is not in a state, or of a kind, to take it.
type conflict struct{ error }

// overloaded is the error of a request shed at admission.
type overloaded string

func (o overloaded) Error() string { return string(o) }

// status is the one table from a pipeline error to its HTTP status. By
// the time a route runs, everything a client can get wrong has been
// refused with 400, so what a backend still returns is a conflict with
// the region's state or configuration, or the server's own fault. 0
// means write nothing: the client has gone and there is no one to tell.
func status(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, ctx.Err()):
		return 0
	case errors.As(err, new(overloaded)):
		return http.StatusServiceUnavailable
	case errors.As(err, new(conflict)), errors.Is(err, ssam.ErrImmutableEngine):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
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
	run: func(ctx context.Context, e *regionEntry, req wire.SearchRequest, root *obs.Span, start time.Time) (wire.SearchResponse, error) {
		ans, err := e.be.Search(ctx, req.Query, req.K, root)
		if err != nil {
			return wire.SearchResponse{}, err
		}
		if ans.Degraded {
			e.stats.recordDegraded()
		}
		e.stats.recordQueries(1, time.Since(start))
		return wire.SearchResponse{
			Results: toNeighbors(ans.Results), Degraded: ans.Degraded, FailedShards: ans.FailedShards,
			Hedges: ans.Hedges, Replica: ans.Replica, Gen: ans.Gen, Failovers: ans.Failovers,
		}, nil
	},
	inline: func(resp *wire.SearchResponse, td *obs.TraceData) { resp.Trace = td },
}

var searchBatchRoute = route[wire.SearchBatchRequest, wire.SearchBatchResponse]{
	trace:  "searchbatch",
	tag:    func(req wire.SearchBatchRequest) obs.Tag { return obs.Tag{Key: "k", Value: req.K} },
	decode: wire.DecodeSearchBatch,
	check: func(e *regionEntry, req wire.SearchBatchRequest) error {
		for i, q := range req.Queries {
			if len(q) != e.dims {
				return fmt.Errorf("query %d has dim %d, want %d", i, len(q), e.dims)
			}
		}
		return nil
	},
	gate:     builtGate,
	admitted: true,
	run: func(_ context.Context, e *regionEntry, req wire.SearchBatchRequest, root *obs.Span, start time.Time) (wire.SearchBatchResponse, error) {
		bsp := root.Start("batch", obs.Tag{Key: "size", Value: len(req.Queries)})
		ans, err := e.be.SearchBatch(req.Queries, req.K, bsp)
		bsp.End()
		if err != nil {
			return wire.SearchBatchResponse{}, err
		}
		rows := make([][]wire.Neighbor, len(ans.Batch))
		for i, res := range ans.Batch {
			rows[i] = toNeighbors(res)
		}
		if ans.Degraded {
			e.stats.recordDegraded()
		}
		e.stats.recordBatch(len(req.Queries))
		e.stats.recordQueries(len(req.Queries), time.Since(start))
		return wire.SearchBatchResponse{
			Results: rows, Degraded: ans.Degraded, FailedShards: ans.FailedShards,
			Hedges: ans.Hedges, Replica: ans.Replica, Gen: ans.Gen, Failovers: ans.Failovers,
		}, nil
	},
	inline: func(resp *wire.SearchBatchResponse, td *obs.TraceData) { resp.Trace = td },
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
			if qst, ok := b.QuantizedStats(); ok {
				rs.Quantized = &wire.QuantizedStats{
					TableBuilds: qst.TableBuilds,
					CodeEvals:   qst.CodeEvals,
					RerankEvals: qst.RerankEvals,
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
