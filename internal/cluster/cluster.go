// Package cluster is the sharded scatter-gather layer over SSAM
// regions: one logical dataset split across N ssam.Region shards — each
// with its own simulated device module, modeling the paper's
// composition of multiple cubes (Section IV, Fig. 4) — with every query
// fanned out to all shards concurrently and the per-shard top-k lists
// reduced to a global top-k on the host (Section III-D).
//
// Shard s holds the contiguous rows par.NewSplit(n, N).Bounds(s, s+1) —
// contiguous blocks, as the paper lays a dataset out across a module's
// vaults and across composed modules (Section III-A/B) — and its region
// adopts that sub-slice of the caller's slab: a sharded dataset is one
// copy. A
// shard's local ids are its global ids less the shard's base, in the
// same order, and the merge breaks distance ties by id, so exact-mode
// cluster searches are indistinguishable from a single region over the
// whole dataset.
//
// Beyond the paper's fan-out/merge skeleton, the cluster carries the
// robustness semantics a serving fleet needs:
//
//   - a per-shard deadline, so one wedged shard cannot stall a query;
//   - optional hedged re-issue: when a shard has not answered within
//     the hedge delay, the query is issued to it a second time and the
//     first answer wins (modeling re-issue to a replica of the shard —
//     on the simulator both attempts share the module, so hedging pays
//     off when the slowness is in front of the device);
//   - partial-result degradation: with AllowPartial set, a query whose
//     shards partly fail still returns the merged results of the
//     survivors, flagged Degraded with the failed shard list, instead
//     of failing outright. A failed shard's rows are one contiguous
//     range of ids.
//
// The attempt race and the lifetime of a loaded shard set are
// internal/hedge's; this package supplies the policy (hedge the same
// shard once, never fail over, fixed HedgeAfter).
//
// Concurrency: searches are safe against each other and against every
// other method — a search leases the shard set it starts on and answers
// from that set alone. AdoptFloat32 and Free publish the next set (or
// none) at once, then wait for the old one's leases — abandoned hedges
// and timed-out stragglers included — before freeing its regions, so a
// wedged fault hook must be released before either can return; searches
// that arrive between a load and its BuildIndex are refused.
// AdoptFloat32, BuildIndex, SetChecks and Free must not run concurrently
// with each other (a Region is built by one caller at a time).
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"ssam"
	"ssam/internal/hedge"
	"ssam/internal/obs"
	"ssam/internal/par"
	"ssam/internal/topk"
)

// ErrShardTimeout marks a shard that missed its per-shard deadline.
var ErrShardTimeout = errors.New("cluster: shard deadline exceeded")

// Options configures a Cluster.
type Options struct {
	// Shards is the number of modules the dataset is split across.
	// Must be positive.
	Shards int
	// ShardDeadline bounds each shard's time to answer one fan-out;
	// a shard that misses it counts as failed. Zero disables it.
	ShardDeadline time.Duration
	// HedgeAfter, when positive, re-issues a query to a shard that has
	// not answered within this delay; the first answer wins.
	HedgeAfter time.Duration
	// AllowPartial degrades instead of failing: queries with failed
	// shards return the survivors' merged results with Degraded set.
	// Without it, any shard failure fails the query. A query whose
	// shards all fail is an error either way.
	AllowPartial bool
}

// Response is one scatter-gather answer to a query batch. Degradation
// is batch-scoped: a failed shard is missing from every query's merge.
type Response struct {
	// Results is the global top-k per query, ids in dataset (not shard)
	// space.
	Results [][]ssam.Result
	// Degraded reports that FailedShards were excluded from the merge
	// (only possible with Options.AllowPartial).
	Degraded bool
	// FailedShards lists the shard indexes that errored or timed out,
	// ascending.
	FailedShards []int
	// Hedges counts hedged re-issues this batch triggered.
	Hedges int
	// Stats is this batch's simulated device execution across shards.
	Stats Stats
}

// Stats aggregates the simulated device execution of one search across
// shards: shards run in parallel, so the cluster's latency is the
// slowest shard's, while instruction, traffic, and PU counts sum — the
// one struct from which the paper's throughput-vs-modules scaling story
// is reproduced.
type Stats struct {
	// PerShard holds each shard's DeviceStats (zero for host shards
	// and for shards excluded from a degraded query).
	PerShard []ssam.DeviceStats
	// Combined has Cycles/Seconds as the max over shards and the
	// remaining fields summed.
	Combined ssam.DeviceStats
}

// Throughput returns queries/second implied by the combined latency.
func (s Stats) Throughput() float64 {
	if s.Combined.Seconds <= 0 {
		return 0
	}
	return 1 / s.Combined.Seconds
}

// ShardStat is one shard's serving-side view for /statsz.
type ShardStat struct {
	Shard    int
	Len      int    // rows resident on the shard
	InFlight int    // fan-outs currently executing
	Queries  uint64 // fan-outs served (including failed)
	Failures uint64 // errored fan-outs (timeouts included)
	Timeouts uint64 // fan-outs that missed the shard deadline
	Hedges   uint64 // hedged re-issues launched
	// AvgLatency is the mean fan-out latency over the shard's lifetime.
	AvgLatency time.Duration
}

// part is one shard's share of a loaded dataset: global rows [base,
// base+rows). It never changes once published, so a result computed on
// region is always remapped by the base it was loaded at.
type part struct {
	region     *ssam.Region // nil for an empty shard: skipped by build and search
	base, rows int
}

// shardSet is one generation: what one AdoptFloat32 placed.
type shardSet struct {
	parts []part
	rows  int
	built *atomic.Bool // set by BuildIndex; searches refuse the set until then
}

// shard is one shard position's serving counters. They belong to the
// position, not the data, so they survive a reload and the series
// scraped from them stay monotone.
type shard struct {
	inFlight atomic.Int64
	queries  atomic.Uint64
	failures atomic.Uint64
	timeouts atomic.Uint64
	hedges   atomic.Uint64
	latNanos atomic.Int64 // cumulative fan-out latency
}

// Cluster is a set of SSAM region shards behind one search interface
// (see the package comment for what may run concurrently with what).
type Cluster struct {
	dims   int
	cfg    ssam.Config
	opts   Options
	shards []*shard

	set   hedge.Cell[shardSet]
	freed atomic.Bool
	racer hedge.Racer
}

// New allocates a cluster of opts.Shards regions, each configured with
// cfg (so Device execution gives every shard its own simulated
// module). Hamming-metric configurations are not supported — the
// cluster partitions float datasets.
func New(dims int, cfg ssam.Config, opts Options) (*Cluster, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("cluster: shards must be positive, got %d", opts.Shards)
	}
	if cfg.Metric == ssam.Hamming {
		return nil, errors.New("cluster: Hamming regions cannot be sharded (float datasets only)")
	}
	// Validate cfg/dims once up front with a probe region, so a bad
	// config fails at New rather than at first Load.
	probe, err := ssam.New(dims, cfg)
	if err != nil {
		return nil, err
	}
	probe.Free()
	c := &Cluster{dims: dims, cfg: cfg, opts: opts, shards: make([]*shard, opts.Shards)}
	for i := range c.shards {
		c.shards[i] = &shard{}
	}
	return c, nil
}

// Dims returns the cluster's vector dimensionality.
func (c *Cluster) Dims() int { return c.dims }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Options returns the cluster's configuration.
func (c *Cluster) Options() Options { return c.opts }

// Len returns the number of loaded vectors across all shards.
func (c *Cluster) Len() int {
	if gen := c.set.Acquire(); gen != nil {
		defer gen.Release()
		return gen.Val.rows
	}
	return 0
}

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook, called before every shard search attempt with the shard index
// and the attempt number (0 primary, 1 hedge). Returning an error
// fails that attempt; blocking simulates a straggler shard.
func (c *Cluster) SetFaultHook(fn func(shard, attempt int) error) { c.racer.SetFaultHook(fn) }

// AdoptFloat32 splits a flattened row-major dataset across the shards
// (nmemcpy, N ways, nothing copied): shard s adopts rows
// par.NewSplit(n, Shards()).Bounds(s, s+1) of data in place, and a shard
// past the split's last slice holds nothing. Region.AdoptFloat32's
// contract holds for data as a whole: the caller must never write
// data[:len(data)] again; appending past its length is harmless.
// Reloading replaces the whole dataset.
func (c *Cluster) AdoptFloat32(data []float32) error {
	if c.freed.Load() {
		return ssam.ErrFreed
	}
	d := c.dims
	if len(data) == 0 || len(data)%d != 0 {
		return fmt.Errorf("cluster: data length %d not a positive multiple of dims %d", len(data), d)
	}
	rows := len(data) / d
	split := par.NewSplit(rows, len(c.shards))
	next := shardSet{parts: make([]part, len(c.shards)), rows: rows, built: new(atomic.Bool)}
	for si := range split.Len() {
		lo, hi := split.Bounds(si, si+1)
		region, err := ssam.New(d, c.cfg)
		if err == nil {
			err = region.AdoptFloat32(data[lo*d : hi*d : hi*d])
		}
		if err != nil {
			next.free() // the set being replaced is untouched and still serving
			return fmt.Errorf("cluster: shard %d: %w", si, err)
		}
		next.parts[si] = part{region: region, base: lo, rows: hi - lo}
	}
	c.retire(c.set.Swap(&next))
	return nil
}

func (s *shardSet) free() {
	for _, p := range s.parts {
		if p.region != nil {
			p.region.Free()
		}
	}
}

// retire frees a replaced shard set once every search that started on
// it — its abandoned attempts included — has let go of it.
func (c *Cluster) retire(old *hedge.Gen[shardSet]) {
	if old != nil {
		old.Drain()
		old.Val.free()
	}
}

// BuildIndex builds every shard's index concurrently (nbuild_index, N
// ways — on device shards each module lays out and assembles its own
// kernels).
func (c *Cluster) BuildIndex() error {
	gen, err := c.lease("BuildIndex before load", false)
	if err != nil {
		return err
	}
	defer gen.Release()
	parts := gen.Val.parts
	if err := par.Each(len(parts), 0, func(si int) error {
		if p := parts[si]; p.region != nil {
			if err := p.region.BuildIndex(); err != nil {
				return fmt.Errorf("cluster: shard %d: %w", si, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	gen.Val.built.Store(true)
	return nil
}

// SetChecks adjusts every shard's accuracy/throughput knob without
// rebuilding (see Region.SetChecks).
func (c *Cluster) SetChecks(n int) error {
	if c.freed.Load() {
		return ssam.ErrFreed
	}
	gen := c.set.Acquire()
	if gen == nil {
		return nil
	}
	defer gen.Release()
	for si, p := range gen.Val.parts {
		if p.region == nil {
			continue
		}
		if err := p.region.SetChecks(n); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", si, err)
		}
	}
	return nil
}

// Search fans a query batch out to every shard (one
// Region.SearchBatchSpan per shard) and merges each query's per-shard
// top-k into its global top-k (ascending distance, ties by ascending
// id); a single query is a batch of one. See Options for the
// deadline/hedging/partial-result semantics. sp (nil for untraced
// batches) gains a "fanout" child holding one "shard" span per attempt
// and a "merge" child covering every query's reduction.
func (c *Cluster) Search(qs [][]float32, k int, sp *obs.Span) (Response, error) {
	gen, err := c.lease("Search before BuildIndex", true)
	if err != nil {
		return Response{}, err
	}
	defer gen.Release()
	if len(qs) == 0 {
		return Response{}, errors.New("cluster: empty batch")
	}
	for _, q := range qs {
		if err := c.checkQuery(len(q), k); err != nil {
			return Response{}, err
		}
	}
	outs, err := scatter(c, gen, qs, k, sp)
	if err != nil {
		return Response{}, err
	}
	msp := sp.Start("merge", obs.Tag{Key: "queries", Value: len(qs)})
	merged := make([][]ssam.Result, len(qs))
	perQuery := make([][]ssam.Result, 0, len(outs.vals))
	for qi := range qs {
		perQuery = perQuery[:0]
		for _, lists := range outs.vals {
			if lists != nil {
				perQuery = append(perQuery, lists[qi])
			}
		}
		merged[qi] = topk.MergeSorted(k, perQuery...)
	}
	msp.End()
	return Response{
		Results:      merged,
		Degraded:     len(outs.failed) > 0,
		FailedShards: outs.failed,
		Hedges:       outs.hedges,
		Stats:        combine(outs.stats),
	}, nil
}

// lease takes the loaded — and, for a search, built — shard set for op,
// or says why it cannot: the one lease that keeps the set's regions
// alive until the caller, and every attempt it launches, is done.
// Callers must Release.
func (c *Cluster) lease(op string, built bool) (*hedge.Gen[shardSet], error) {
	gen := c.set.Acquire()
	switch {
	case gen == nil && c.freed.Load():
		return nil, ssam.ErrFreed
	case gen == nil:
		return nil, errors.New("cluster: " + op)
	case built && !gen.Val.built.Load():
		gen.Release()
		return nil, errors.New("cluster: " + op)
	}
	return gen, nil
}

func (c *Cluster) checkQuery(qdims, k int) error {
	if qdims != c.dims {
		return fmt.Errorf("cluster: query dim %d, want %d", qdims, c.dims)
	}
	if k <= 0 {
		return errors.New("cluster: k must be positive")
	}
	return nil
}

// remap rewrites shard-local result ids to global dataset ids, in
// place (shard search results are freshly allocated).
func (p part) remap(res []ssam.Result) {
	for i := range res {
		res[i].ID += p.base
	}
}

// gather is the outcome of one scatter across all shards.
type gather struct {
	vals   [][][]ssam.Result // per shard, each query's answer in global ids; nil for empty or failed shards
	stats  []ssam.DeviceStats
	failed []int
	hedges int
}

// scatter searches qs on every non-empty shard of gen concurrently,
// applying the deadline/hedge/partial-result policy, and collects the
// outcomes. It returns an error when failures cannot be degraded away:
// any failure without AllowPartial, or all shards failing. When sp is
// non-nil the fan-out is recorded as a "fanout" child span holding one
// "shard" span per attempt.
func scatter(c *Cluster, gen *hedge.Gen[shardSet], qs [][]float32, k int, sp *obs.Span) (gather, error) {
	parts := gen.Val.parts
	g := gather{vals: make([][][]ssam.Result, len(parts)), stats: make([]ssam.DeviceStats, len(parts))}
	outs := make([]shardOutcome, len(parts))
	fsp := sp.Start("fanout")
	err := par.Each(len(parts), 0, func(si int) error {
		if parts[si].region != nil {
			outs[si] = runShard(c, gen, si, qs, k, fsp)
		}
		return nil
	})
	fsp.End()
	if err != nil {
		return g, err
	}

	active := 0
	var firstErr error
	for si, p := range parts {
		if p.region == nil {
			continue
		}
		active++
		out := &outs[si]
		g.hedges += out.hedges
		if out.err != nil {
			g.failed = append(g.failed, si)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %d: %w", si, out.err)
			}
			continue
		}
		g.vals[si] = out.val
		g.stats[si] = out.stats
	}
	if active == 0 {
		return g, errors.New("cluster: no loaded shards")
	}
	sort.Ints(g.failed)
	if firstErr != nil && (!c.opts.AllowPartial || len(g.failed) == active) {
		return g, firstErr
	}
	return g, nil
}

// shardOutcome is one shard's fan-out result.
type shardOutcome struct {
	val    [][]ssam.Result
	stats  ssam.DeviceStats
	err    error
	hedges int
}

// runShard races the batch search of qs against shard si of gen,
// remapping its answers to global ids, under the cluster's policy:
// one hedge to the same shard after HedgeAfter (re-issue to a replica
// of the shard), never a failover, ShardDeadline over the whole
// fan-out. The shard's counters are per fan-out, not per attempt.
func runShard(c *Cluster, gen *hedge.Gen[shardSet], si int, qs [][]float32, k int, fsp *obs.Span) shardOutcome {
	s := c.shards[si]
	start := time.Now()
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		s.queries.Add(1)
		s.latNanos.Add(int64(time.Since(start)))
	}()

	out, info, err := hedge.Race(&c.racer, gen, hedge.Plan[shardOutcome]{
		HedgeAfter: c.opts.HedgeAfter,
		Deadline:   c.opts.ShardDeadline,
		Begin: func(attempt int, kind string) (int, *obs.Span, func(error)) {
			switch kind {
			case hedge.Failover:
				return -1, nil, nil
			case hedge.Hedge:
				s.hedges.Add(1)
			}
			asp := fsp.Start("shard", obs.Tag{Key: "shard", Value: si}, obs.Tag{Key: "attempt", Value: attempt})
			return si, asp, func(error) { asp.End() }
		},
		Run: func(_, _ int, asp *obs.Span) (shardOutcome, error) {
			p := gen.Val.parts[si]
			lists, w, err := p.region.SearchBatchSpan(qs, k, asp)
			if err != nil {
				return shardOutcome{stats: w.DeviceStats}, err
			}
			for _, l := range lists {
				p.remap(l)
			}
			return shardOutcome{val: lists, stats: w.DeviceStats}, nil
		},
	})
	out.hedges = info.Hedges
	if out.err = err; err != nil {
		s.failures.Add(1)
	}
	if err == hedge.ErrDeadline {
		out.err = ErrShardTimeout
		s.timeouts.Add(1)
	}
	return out
}

// combine aggregates per-shard device stats.
func combine(perShard []ssam.DeviceStats) Stats {
	st := Stats{PerShard: perShard}
	for _, s := range perShard {
		if s.Cycles > st.Combined.Cycles {
			st.Combined.Cycles = s.Cycles
		}
		if s.Seconds > st.Combined.Seconds {
			st.Combined.Seconds = s.Seconds
		}
		st.Combined.Instructions += s.Instructions
		st.Combined.VectorInstructions += s.VectorInstructions
		st.Combined.DRAMBytesRead += s.DRAMBytesRead
		st.Combined.ProcessingUnits += s.ProcessingUnits
		st.Combined.StorageBytesRead += s.StorageBytesRead
		st.Combined.StorageCacheHits += s.StorageCacheHits
		st.Combined.StorageStalls += s.StorageStalls
	}
	return st
}

// ShardStat returns one shard's serving-side counters — the
// allocation-free form metric callbacks scrape.
func (c *Cluster) ShardStat(si int) ShardStat {
	s := c.shards[si]
	st := ShardStat{
		Shard:    si,
		InFlight: int(s.inFlight.Load()),
		Queries:  s.queries.Load(),
		Failures: s.failures.Load(),
		Timeouts: s.timeouts.Load(),
		Hedges:   s.hedges.Load(),
	}
	if st.Queries > 0 {
		st.AvgLatency = time.Duration(uint64(s.latNanos.Load()) / st.Queries)
	}
	if gen := c.set.Acquire(); gen != nil {
		st.Len = gen.Val.parts[si].rows
		gen.Release()
	}
	return st
}

// ShardStats returns each shard's serving-side counters.
func (c *Cluster) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for si := range c.shards {
		out[si] = c.ShardStat(si)
	}
	return out
}

// Free releases every shard once the searches in flight are done with
// them. Further operations return ssam.ErrFreed.
func (c *Cluster) Free() {
	c.freed.Store(true)
	c.retire(c.set.Swap(nil))
}
