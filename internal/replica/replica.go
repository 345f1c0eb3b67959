// Package replica is the replication layer between the SSAM query
// server and its region/cluster backends: a Group holds N
// interchangeable replicas of one dataset — each its own ssam.Region
// or cluster.Cluster — and serves every query from exactly one of
// them, chosen by power-of-two-choices load-aware routing. This is
// the host-side analogue of NCAM's dataset replication across PIM
// stacks (arXiv:1606.03742) and the computational-storage platform's
// replication across drives (arXiv:2207.05241): sharding splits one
// copy for capacity, replication multiplies copies for throughput and
// availability.
//
// Beyond routing, the group carries the availability semantics a
// serving fleet needs:
//
//   - power-of-two-choices selection: each query picks two random
//     replicas and goes to the one with the lower load score
//     ((in-flight + 1) x EWMA latency), which provably avoids the
//     herding of pick-least-loaded while staying O(1);
//   - hedged reads: when the chosen replica has not answered within a
//     p99-derived delay (learned from recent attempt latencies and
//     clamped to a configured band), the query is issued once more to
//     a different replica and the first answer wins;
//   - transparent failover: a replica that errors is retried on a
//     replica not yet tried, so a group with at least one healthy
//     replica answers with zero degraded responses even while another
//     replica is being killed;
//   - generational zero-downtime reload: Swap builds a full new
//     replica set in the background, warms it, atomically cuts
//     traffic over, and frees the old generation only after its
//     in-flight queries drain — no query is dropped or answered
//     twice across the cutover.
//
// Mutations fan out to every replica in sequence order: the writer
// mutex picks a total order and applies it identically to each
// replica, so replicated linear regions stay writable and
// bit-identical (the group verifies the per-replica sequence numbers
// agree and surfaces divergence as an error instead of serving
// mixed answers).
//
// The attempt race and the generation lifetime are internal/hedge's;
// this package supplies the policy (power-of-two-choices among the
// untried for hedge and failover alike, the p99-derived delay).
package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ssam"
	"ssam/internal/cluster"
	"ssam/internal/hedge"
	"ssam/internal/obs"
)

// ErrNoGeneration is returned by searches and mutations before the
// first Swap has installed a replica set.
var ErrNoGeneration = errors.New("replica: no generation built (Swap first)")

// ErrDeadline marks a query that outlived Options.Deadline with no
// attempt answering.
var ErrDeadline = errors.New("replica: query deadline exceeded")

// Answer is one backend's search result, carrying through the
// degradation signals a sharded backend may report.
type Answer struct {
	Results []ssam.Result
	// Degraded and FailedShards pass through a cluster backend's
	// partial-result signals (always zero for region backends).
	Degraded     bool
	FailedShards []int
	// ShardHedges counts shard-level hedges inside a cluster backend.
	ShardHedges int
}

// BatchAnswer is Answer for a query batch.
type BatchAnswer struct {
	Results      [][]ssam.Result
	Degraded     bool
	FailedShards []int
	ShardHedges  int
}

// Backend is one replica's serving interface. Region and cluster
// adapters are provided (WrapRegion, WrapCluster); tests substitute
// fakes. Search methods must be safe for concurrent use; mutations
// are serialized by the group's writer mutex.
type Backend interface {
	Search(q []float32, k int, sp *obs.Span) (Answer, error)
	SearchBatch(qs [][]float32, k int, sp *obs.Span) (BatchAnswer, error)
	Upsert(id int, v []float32) (uint64, error)
	Delete(id int) (seq uint64, ok bool, err error)
	Compact() (ssam.CompactResult, error)
	Len() int
	Free()
}

// regionBackend adapts *ssam.Region to Backend.
type regionBackend struct{ r *ssam.Region }

// WrapRegion adapts a built region into a group backend.
func WrapRegion(r *ssam.Region) Backend { return regionBackend{r} }

func (b regionBackend) Search(q []float32, k int, sp *obs.Span) (Answer, error) {
	res, _, err := b.r.SearchStatsSpan(q, k, sp)
	return Answer{Results: res}, err
}

func (b regionBackend) SearchBatch(qs [][]float32, k int, sp *obs.Span) (BatchAnswer, error) {
	res, err := b.r.SearchBatchSpan(qs, k, sp)
	return BatchAnswer{Results: res}, err
}

func (b regionBackend) Upsert(id int, v []float32) (uint64, error) { return b.r.Upsert(id, v) }
func (b regionBackend) Delete(id int) (uint64, bool, error)        { return b.r.Delete(id) }
func (b regionBackend) Compact() (ssam.CompactResult, error)       { return b.r.CompactNow() }
func (b regionBackend) Len() int                                   { return b.r.Len() }
func (b regionBackend) Free()                                      { b.r.Free() }

// clusterBackend adapts *cluster.Cluster to Backend. Sharded
// backends are immutable (the partitioner bakes placement at load
// time), so mutations return ssam.ErrImmutableEngine.
type clusterBackend struct{ c *cluster.Cluster }

// WrapCluster adapts a built scatter-gather cluster into a group
// backend, giving replicated-and-sharded regions.
func WrapCluster(c *cluster.Cluster) Backend { return clusterBackend{c} }

func (b clusterBackend) Search(q []float32, k int, sp *obs.Span) (Answer, error) {
	resp, err := b.c.SearchTraced(q, k, sp)
	if err != nil {
		return Answer{}, err
	}
	return Answer{
		Results: resp.Results, Degraded: resp.Degraded,
		FailedShards: resp.FailedShards, ShardHedges: resp.Hedges,
	}, nil
}

func (b clusterBackend) SearchBatch(qs [][]float32, k int, sp *obs.Span) (BatchAnswer, error) {
	resp, err := b.c.SearchBatchTraced(qs, k, sp)
	if err != nil {
		return BatchAnswer{}, err
	}
	return BatchAnswer{
		Results: resp.Results, Degraded: resp.Degraded,
		FailedShards: resp.FailedShards, ShardHedges: resp.Hedges,
	}, nil
}

func (b clusterBackend) Upsert(int, []float32) (uint64, error) {
	return 0, fmt.Errorf("replica: sharded backend: %w", ssam.ErrImmutableEngine)
}

func (b clusterBackend) Delete(int) (uint64, bool, error) {
	return 0, false, fmt.Errorf("replica: sharded backend: %w", ssam.ErrImmutableEngine)
}

func (b clusterBackend) Compact() (ssam.CompactResult, error) {
	return ssam.CompactResult{}, fmt.Errorf("replica: sharded backend: %w", ssam.ErrImmutableEngine)
}

func (b clusterBackend) Len() int { return b.c.Len() }
func (b clusterBackend) Free()    { b.c.Free() }

// Options configures a Group. Zero values select the defaults.
type Options struct {
	// Replicas is the number of interchangeable dataset copies. Must
	// be positive; 1 is a degenerate group (no redundancy, no hedging).
	Replicas int
	// Hedge enables a second attempt on a different replica once the
	// chosen one has been silent for the p99-derived hedge delay.
	Hedge bool
	// HedgeMin and HedgeMax clamp the adaptive hedge delay (defaults
	// 1ms and 100ms). Until enough latency samples accumulate the
	// delay sits at HedgeMax, so cold groups do not hedge eagerly.
	HedgeMin, HedgeMax time.Duration
	// Deadline bounds one whole query across all its attempts; 0
	// disables it.
	Deadline time.Duration
	// Seed makes routing reproducible in tests (0 seeds from entropy
	// via the default source semantics of math/rand).
	Seed int64
}

func (o *Options) fill() error {
	if o.Replicas <= 0 {
		return fmt.Errorf("replica: replicas must be positive, got %d", o.Replicas)
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = time.Millisecond
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = 100 * time.Millisecond
	}
	if o.HedgeMin > o.HedgeMax {
		return fmt.Errorf("replica: hedge min %v exceeds max %v", o.HedgeMin, o.HedgeMax)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("replica: deadline must be non-negative, got %v", o.Deadline)
	}
	return nil
}

const (
	// hedgeSamples bounds the latency ring the hedge delay is derived
	// from; hedgeRecompute sets how often the p99 is re-sorted out of
	// it (every query would pay an O(n log n) sort for nothing).
	hedgeSamples     = 512
	hedgeRecompute   = 64
	hedgeMinSamples  = 16
	ewmaAlphaPercent = 30 // EWMA weight of the newest latency sample
)

// slot is one replica position's serving state. Slots are fixed for
// the group's lifetime and survive generation swaps — the replicas
// behind them are interchangeable, so load and health accounting
// belongs to the position, not the copy.
type slot struct {
	idx       int
	inFlight  atomic.Int64
	queries   atomic.Uint64 // attempts finished (errors included)
	errors    atomic.Uint64
	hedges    atomic.Uint64 // hedge attempts this slot received
	failovers atomic.Uint64 // failover attempts this slot received
	ewmaNanos atomic.Int64  // EWMA of successful attempt latency
}

// observe folds one successful attempt latency into the slot's EWMA.
func (s *slot) observe(lat time.Duration) {
	for {
		old := s.ewmaNanos.Load()
		var next int64
		if old == 0 {
			next = int64(lat)
		} else {
			next = old + (int64(lat)-old)*ewmaAlphaPercent/100
		}
		if s.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// score is the load metric power-of-two-choices compares: expected
// queue time, (in-flight + 1) x EWMA latency. A slot that has never
// answered scores by in-flight alone (EWMA treated as one unit), so
// fresh groups still spread load.
func (s *slot) score() float64 {
	ew := float64(s.ewmaNanos.Load())
	if ew <= 0 {
		ew = 1
	}
	return float64(s.inFlight.Load()+1) * ew
}

// replicaSet is one immutable generation of backends. Queries lease it
// for their whole lifetime (hedged stragglers included); Swap and Free
// drain the leases before freeing it.
type replicaSet struct {
	id       uint64
	backends []Backend
}

func (rs *replicaSet) free() {
	for _, b := range rs.backends {
		b.Free()
	}
}

// Group is N interchangeable replicas behind one search interface.
// Searches and mutations are safe for concurrent use; Swap and Free
// serialize with mutations on the writer mutex.
type Group struct {
	opts Options

	slots []*slot

	gen hedge.Cell[replicaSet]

	writerMu sync.Mutex // total order for mutations, swaps, frees
	swaps    atomic.Uint64
	freed    atomic.Bool

	// racer holds the fault-injection hook and the hedge/deadline timer
	// seam (tests substitute fake channels).
	racer hedge.Racer

	latMu    sync.Mutex
	lat      [hedgeSamples]int64 // nanos ring of successful attempt latencies
	latIdx   int
	latN     int
	latCount uint64
	p99Delay atomic.Int64 // cached p99-derived hedge delay, nanos

	rngMu sync.Mutex
	rng   *rand.Rand

	now func() time.Time // the latency clock seam
}

// NewGroup returns an empty group: Options are validated and slots
// allocated, but no replica set serves until the first Swap.
func NewGroup(opts Options) (*Group, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	g := &Group{
		opts: opts,
		rng:  rand.New(rand.NewSource(seed)),
		now:  time.Now,
	}
	g.slots = make([]*slot, opts.Replicas)
	for i := range g.slots {
		g.slots[i] = &slot{idx: i}
	}
	g.p99Delay.Store(int64(opts.HedgeMax))
	return g, nil
}

// Replicas returns the group's replica count.
func (g *Group) Replicas() int { return len(g.slots) }

// Options returns the group's configuration (after default filling).
func (g *Group) Options() Options { return g.opts }

// Gen returns the serving generation id (0 before the first Swap).
func (g *Group) Gen() uint64 {
	gen := g.gen.Acquire()
	if gen == nil {
		return 0
	}
	defer gen.Release()
	return gen.Val.id
}

// Len returns the row count of the serving generation (replica 0's
// view; replicas are identical by construction).
func (g *Group) Len() int {
	gen := g.gen.Acquire()
	if gen == nil {
		return 0
	}
	defer gen.Release()
	return gen.Val.backends[0].Len()
}

// SetFaultHook installs (or, with nil, removes) the fault-injection
// hook, called before every attempt with the replica slot index and
// attempt sequence number. Returning an error fails that attempt;
// blocking simulates a straggler replica.
func (g *Group) SetFaultHook(fn func(replica, attempt int) error) { g.racer.SetFaultHook(fn) }

// SwapStats reports one completed Swap.
type SwapStats struct {
	// Gen is the new serving generation id (1 for the first Swap).
	Gen uint64
	// Replicas is the replica count of the new generation.
	Replicas int
	// Build is how long constructing and warming the new replica set
	// took (traffic served the old generation throughout).
	Build time.Duration
	// Drain is how long the old generation's in-flight queries took
	// to finish after cutover (0 for the first Swap).
	Drain time.Duration
}

// Swap installs a new generation with zero downtime: build(i) is
// called once per replica slot to construct the new backends (each a
// fully loaded, built copy), each is warmed with the warm queries,
// traffic is atomically cut over, and the old generation is freed
// only after its in-flight queries — hedged stragglers included —
// drain. A build or warm error aborts the swap with the old
// generation untouched and still serving. Swap serializes with
// mutations, so no write ever splits across generations.
func (g *Group) Swap(build func(i int) (Backend, error), warm [][]float32, k int) (SwapStats, error) {
	g.writerMu.Lock()
	defer g.writerMu.Unlock()
	if g.freed.Load() {
		return SwapStats{}, ssam.ErrFreed
	}
	start := g.now()

	// Build the whole new replica set concurrently, in the background
	// of live traffic.
	backends := make([]Backend, len(g.slots))
	errs := make([]error, len(g.slots))
	var wg sync.WaitGroup
	for i := range backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			backends[i], errs[i] = build(i)
		}(i)
	}
	wg.Wait()
	abort := func() {
		for _, b := range backends {
			if b != nil {
				b.Free()
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			abort()
			return SwapStats{}, fmt.Errorf("replica: building replica %d: %w", i, err)
		}
	}

	// Warm every new replica before it can take traffic, so the first
	// post-cutover queries do not pay first-touch costs.
	if k <= 0 {
		k = 1
	}
	for i, b := range backends {
		for _, q := range warm {
			if _, err := b.Search(q, k, nil); err != nil {
				abort()
				return SwapStats{}, fmt.Errorf("replica: warming replica %d: %w", i, err)
			}
		}
	}

	next := replicaSet{id: g.swaps.Add(1), backends: backends}
	st := SwapStats{Gen: next.id, Replicas: len(backends), Build: g.now().Sub(start)}
	if old := g.gen.Swap(&next); old != nil {
		drainStart := g.now()
		old.Drain()
		old.Val.free()
		st.Drain = g.now().Sub(drainStart)
	}
	return st, nil
}

// Free tears the group down: the serving generation is detached, its
// in-flight queries drain, and the backends are freed. Subsequent
// operations return ssam.ErrFreed.
func (g *Group) Free() {
	g.writerMu.Lock()
	if g.freed.Swap(true) {
		g.writerMu.Unlock()
		return
	}
	old := g.gen.Swap(nil)
	g.writerMu.Unlock()
	if old != nil {
		old.Drain()
		old.Val.free()
	}
}

// --- routing ---

// pick selects the next attempt's slot by power-of-two-choices among
// the slots not yet tried this query: two distinct random candidates,
// the lower load score wins (ties to the lower index). With one
// candidate left it is returned directly; with none, -1.
func (g *Group) pick(tried []bool) int {
	var cands []int
	for i, t := range tried {
		if !t {
			cands = append(cands, i)
		}
	}
	switch len(cands) {
	case 0:
		return -1
	case 1:
		return cands[0]
	}
	g.rngMu.Lock()
	i := g.rng.Intn(len(cands))
	j := g.rng.Intn(len(cands) - 1)
	g.rngMu.Unlock()
	if j >= i {
		j++
	}
	a, b := g.slots[cands[i]], g.slots[cands[j]]
	sa, sb := a.score(), b.score()
	if sb < sa || (sb == sa && b.idx < a.idx) {
		return b.idx
	}
	return a.idx
}

// recordLatency feeds one successful attempt latency into the hedge
// ring, re-deriving the cached p99 delay every hedgeRecompute samples.
func (g *Group) recordLatency(lat time.Duration) {
	g.latMu.Lock()
	g.lat[g.latIdx] = int64(lat)
	g.latIdx = (g.latIdx + 1) % hedgeSamples
	if g.latN < hedgeSamples {
		g.latN++
	}
	g.latCount++
	recompute := g.latCount%hedgeRecompute == 0 || g.latN == hedgeMinSamples
	var sample []int64
	if recompute {
		sample = make([]int64, g.latN)
		copy(sample, g.lat[:g.latN])
	}
	g.latMu.Unlock()
	if !recompute {
		return
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	p99 := sample[min(len(sample)-1, len(sample)*99/100)]
	g.p99Delay.Store(int64(g.clampHedge(time.Duration(p99))))
}

func (g *Group) clampHedge(d time.Duration) time.Duration {
	if d < g.opts.HedgeMin {
		return g.opts.HedgeMin
	}
	if d > g.opts.HedgeMax {
		return g.opts.HedgeMax
	}
	return d
}

// HedgeDelay returns the current p99-derived hedge delay: the p99 of
// recent successful attempt latencies clamped to [HedgeMin,
// HedgeMax], or HedgeMax until hedgeMinSamples have accumulated (a
// cold group must not hedge eagerly on no evidence).
func (g *Group) HedgeDelay() time.Duration {
	g.latMu.Lock()
	n := g.latN
	g.latMu.Unlock()
	if n < hedgeMinSamples {
		return g.opts.HedgeMax
	}
	return time.Duration(g.p99Delay.Load())
}

// route races op across the replicas under the group's policy: every
// attempt — primary, hedge after the p99-derived delay, failover on
// error — goes to a power-of-two-choices pick among the replicas this
// query has not tried, and Options.Deadline bounds the whole. sp (nil
// for untraced queries) gains a "route" child per attempt, tagged with
// the slot, the attempt number, and whether it was a hedge or failover.
// It reports who answered and the generation served from.
func route[T any](g *Group, sp *obs.Span, op func(b Backend, asp *obs.Span) (T, error)) (val T, info hedge.Info, genID uint64, err error) {
	if g.freed.Load() {
		return val, info, 0, ssam.ErrFreed
	}
	gen := g.gen.Acquire()
	if gen == nil {
		return val, info, 0, ErrNoGeneration
	}
	defer gen.Release()

	plan := hedge.Plan[T]{Deadline: g.opts.Deadline}
	if g.opts.Hedge && len(g.slots) > 1 {
		plan.HedgeAfter = g.HedgeDelay()
	}
	tried := make([]bool, len(g.slots))
	plan.Begin = func(seq int, kind string) (int, *obs.Span, func(error)) {
		si := g.pick(tried)
		if si < 0 {
			return -1, nil, nil
		}
		tried[si] = true
		s := g.slots[si]
		s.inFlight.Add(1)
		asp := sp.Start("route",
			obs.Tag{Key: "replica", Value: si},
			obs.Tag{Key: "attempt", Value: seq},
			obs.Tag{Key: "gen", Value: gen.Val.id})
		switch kind {
		case hedge.Hedge:
			s.hedges.Add(1)
			asp.SetTag(kind, true)
		case hedge.Failover:
			s.failovers.Add(1)
			asp.SetTag(kind, true)
		}
		start := g.now()
		return si, asp, func(err error) {
			lat := g.now().Sub(start)
			s.inFlight.Add(-1)
			s.queries.Add(1)
			if err != nil {
				s.errors.Add(1)
			} else {
				s.observe(lat)
				g.recordLatency(lat)
			}
			asp.End()
		}
	}
	plan.Run = func(si, _ int, asp *obs.Span) (T, error) { return op(gen.Val.backends[si], asp) }

	val, info, err = hedge.Race(&g.racer, gen, plan)
	switch {
	case err == hedge.ErrDeadline:
		err = fmt.Errorf("%w after %v (%d attempts outstanding)", ErrDeadline, g.opts.Deadline, info.Outstanding)
	case err != nil:
		err = fmt.Errorf("replica: all %d replicas failed: %w", len(g.slots), err)
	}
	return val, info, gen.Val.id, err
}

// Response is one replicated search answer.
type Response struct {
	Answer
	// Replica is the slot that answered; Gen the generation it served
	// from.
	Replica int
	Gen     uint64
	// Hedges counts replica-level hedge attempts this query launched;
	// Failovers counts re-issues after replica errors.
	Hedges    int
	Failovers int
}

// BatchResponse is Response for a query batch (the whole batch is
// routed to one replica).
type BatchResponse struct {
	BatchAnswer
	Replica   int
	Gen       uint64
	Hedges    int
	Failovers int
}

// Search answers one query from the replica the router chooses,
// hedging and failing over per Options.
func (g *Group) Search(q []float32, k int, sp *obs.Span) (Response, error) {
	ans, info, gen, err := route(g, sp, func(b Backend, asp *obs.Span) (Answer, error) {
		return b.Search(q, k, asp)
	})
	if err != nil {
		return Response{}, err
	}
	return Response{
		Answer: ans, Replica: info.Target, Gen: gen,
		Hedges: info.Hedges, Failovers: info.Failovers,
	}, nil
}

// SearchBatch answers a query batch from one routed replica with the
// same hedge/failover policy as Search.
func (g *Group) SearchBatch(qs [][]float32, k int, sp *obs.Span) (BatchResponse, error) {
	ans, info, gen, err := route(g, sp, func(b Backend, asp *obs.Span) (BatchAnswer, error) {
		return b.SearchBatch(qs, k, asp)
	})
	if err != nil {
		return BatchResponse{}, err
	}
	return BatchResponse{
		BatchAnswer: ans, Replica: info.Target, Gen: gen,
		Hedges: info.Hedges, Failovers: info.Failovers,
	}, nil
}

// --- mutations: seq-ordered fan-out ---

// Upsert inserts or replaces one row on every replica, in the total
// order the writer mutex imposes, and returns the committed sequence
// number. All replicas apply the identical operation stream, so their
// sequence numbers must agree; divergence is surfaced as an error
// rather than served.
func (g *Group) Upsert(id int, v []float32) (uint64, error) {
	g.writerMu.Lock()
	defer g.writerMu.Unlock()
	if g.freed.Load() {
		return 0, ssam.ErrFreed
	}
	gen := g.gen.Acquire()
	if gen == nil {
		return 0, ErrNoGeneration
	}
	defer gen.Release()
	var seq uint64
	for i, b := range gen.Val.backends {
		s, err := b.Upsert(id, v)
		if err != nil {
			return 0, fmt.Errorf("replica: upsert on replica %d: %w", i, err)
		}
		if i == 0 {
			seq = s
		} else if s != seq {
			return 0, fmt.Errorf("replica: seq divergence on upsert: replica %d committed %d, replica 0 committed %d", i, s, seq)
		}
	}
	return seq, nil
}

// Delete tombstones one row on every replica in writer order. The hit
// outcome and sequence number must agree across replicas.
func (g *Group) Delete(id int) (uint64, bool, error) {
	g.writerMu.Lock()
	defer g.writerMu.Unlock()
	if g.freed.Load() {
		return 0, false, ssam.ErrFreed
	}
	gen := g.gen.Acquire()
	if gen == nil {
		return 0, false, ErrNoGeneration
	}
	defer gen.Release()
	var seq uint64
	var hit bool
	for i, b := range gen.Val.backends {
		s, h, err := b.Delete(id)
		if err != nil {
			return 0, false, fmt.Errorf("replica: delete on replica %d: %w", i, err)
		}
		if i == 0 {
			seq, hit = s, h
		} else if s != seq || h != hit {
			return 0, false, fmt.Errorf("replica: divergence on delete: replica %d reported (seq %d, hit %v), replica 0 (seq %d, hit %v)", i, s, h, seq, hit)
		}
	}
	return seq, hit, nil
}

// CompactNow runs one synchronous compaction pass on every replica
// (compaction never changes results or sequence numbers, so replicas
// stay interchangeable) and returns replica 0's result.
func (g *Group) CompactNow() (ssam.CompactResult, error) {
	g.writerMu.Lock()
	defer g.writerMu.Unlock()
	if g.freed.Load() {
		return ssam.CompactResult{}, ssam.ErrFreed
	}
	gen := g.gen.Acquire()
	if gen == nil {
		return ssam.CompactResult{}, ErrNoGeneration
	}
	defer gen.Release()
	var first ssam.CompactResult
	for i, b := range gen.Val.backends {
		res, err := b.Compact()
		if err != nil {
			return ssam.CompactResult{}, fmt.Errorf("replica: compact on replica %d: %w", i, err)
		}
		if i == 0 {
			first = res
		}
	}
	return first, nil
}

// --- stats ---

// ReplicaStat is one slot's serving-side view.
type ReplicaStat struct {
	Replica   int
	InFlight  int
	Queries   uint64 // attempts finished (errors included)
	Errors    uint64
	Hedges    uint64 // hedge attempts received
	Failovers uint64 // failover attempts received
	// EwmaLatency is the slot's load-score latency estimate.
	EwmaLatency time.Duration
}

// Stat returns one slot's counters — the allocation-free form metric
// callbacks scrape.
func (g *Group) Stat(i int) ReplicaStat {
	s := g.slots[i]
	return ReplicaStat{
		Replica:     i,
		InFlight:    int(s.inFlight.Load()),
		Queries:     s.queries.Load(),
		Errors:      s.errors.Load(),
		Hedges:      s.hedges.Load(),
		Failovers:   s.failovers.Load(),
		EwmaLatency: time.Duration(s.ewmaNanos.Load()),
	}
}

// GroupStats is the group's serving-side view for /statsz.
type GroupStats struct {
	// Gen is the serving generation (0 before the first Swap); Swaps
	// counts generations installed over the group's lifetime.
	Gen   uint64
	Swaps uint64
	// HedgeDelay is the current p99-derived hedge delay.
	HedgeDelay time.Duration
	Replicas   []ReplicaStat
}

// Stats returns every slot's counters plus the group-level state.
func (g *Group) Stats() GroupStats {
	st := GroupStats{
		Gen:        g.Gen(),
		Swaps:      g.swaps.Load(),
		HedgeDelay: g.HedgeDelay(),
		Replicas:   make([]ReplicaStat, len(g.slots)),
	}
	for i := range g.slots {
		st.Replicas[i] = g.Stat(i)
	}
	return st
}
