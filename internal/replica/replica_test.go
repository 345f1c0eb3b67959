package replica

// In-package unit tests for the routing core: they reach the rng,
// timer, and clock seams plus the slot internals that the external
// equivalence suite (equiv_test.go) cannot touch. Every timing-
// sensitive behaviour — hedge firing, failover sequencing, swap
// draining — is driven by injected channels, not sleeps.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssam"
	"ssam/internal/obs"
)

// fakeBackend is a scriptable Backend: searches answer with the
// fake's id (so tests can tell which replica served), optionally
// through a custom searchFn; mutations advance a sequence counter by
// seqStep (1 unless a test injects divergence).
type fakeBackend struct {
	id       int
	searchFn func(q []float32, k int) (Answer, error)

	freed atomic.Bool

	mu      sync.Mutex
	seq     uint64
	seqStep uint64 // 0 means 1; >1 injects seq divergence
	delMiss bool   // report Delete as a miss (hit divergence)
	upserts []int
	deletes []int
}

func (f *fakeBackend) answer() Answer {
	return Answer{Results: []ssam.Result{{ID: f.id, Dist: float64(f.id)}}}
}

func (f *fakeBackend) Search(q []float32, k int, _ *obs.Span) (Answer, error) {
	if f.searchFn != nil {
		return f.searchFn(q, k)
	}
	return f.answer(), nil
}

func (f *fakeBackend) SearchBatch(qs [][]float32, k int, _ *obs.Span) (BatchAnswer, error) {
	out := BatchAnswer{Results: make([][]ssam.Result, len(qs))}
	for i := range qs {
		a, err := f.Search(qs[i], k, nil)
		if err != nil {
			return BatchAnswer{}, err
		}
		out.Results[i] = a.Results
	}
	return out, nil
}

func (f *fakeBackend) step() uint64 {
	if f.seqStep == 0 {
		return 1
	}
	return f.seqStep
}

func (f *fakeBackend) Upsert(id int, _ []float32) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq += f.step()
	f.upserts = append(f.upserts, id)
	return f.seq, nil
}

func (f *fakeBackend) Delete(id int) (uint64, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq += f.step()
	f.deletes = append(f.deletes, id)
	return f.seq, !f.delMiss, nil
}

func (f *fakeBackend) Compact() (ssam.CompactResult, error) { return ssam.CompactResult{}, nil }
func (f *fakeBackend) Len() int                             { return 42 }
func (f *fakeBackend) Free()                                { f.freed.Store(true) }

// newFakes returns n scriptable backends with distinct ids.
func newFakes(n int) []*fakeBackend {
	out := make([]*fakeBackend, n)
	for i := range out {
		out[i] = &fakeBackend{id: i}
	}
	return out
}

// swapFakes installs the fakes as the group's serving generation.
func swapFakes(t *testing.T, g *Group, fakes []*fakeBackend) {
	t.Helper()
	_, err := g.Swap(func(i int) (Backend, error) { return fakes[i], nil }, nil, 1)
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
}

// immediateHedge replaces the group's timer with one whose hedge
// channel is already hot, so the hedge path runs without waiting.
func immediateHedge(g *Group) {
	c := make(chan time.Time, 1)
	c <- time.Time{}
	g.racer.Timer = func(time.Duration) (<-chan time.Time, func() bool) {
		return c, func() bool { return true }
	}
}

func TestOptionsValidation(t *testing.T) {
	for _, o := range []Options{
		{Replicas: 0},
		{Replicas: -2},
		{Replicas: 2, HedgeMin: 50 * time.Millisecond, HedgeMax: time.Millisecond},
		{Replicas: 2, Deadline: -time.Second},
	} {
		if _, err := NewGroup(o); err == nil {
			t.Errorf("NewGroup(%+v) accepted invalid options", o)
		}
	}
	g, err := NewGroup(Options{Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	o := g.Options()
	if o.HedgeMin != time.Millisecond || o.HedgeMax != 100*time.Millisecond {
		t.Fatalf("defaults not filled: %+v", o)
	}
	if g.Replicas() != 3 {
		t.Fatalf("Replicas() = %d", g.Replicas())
	}
}

func TestLifecycleErrors(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Before the first Swap nothing serves.
	if _, err := g.Search([]float32{1}, 1, nil); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("search before swap: %v", err)
	}
	if _, err := g.Upsert(1, []float32{1}); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("upsert before swap: %v", err)
	}
	if g.Gen() != 0 || g.Len() != 0 {
		t.Fatalf("empty group: gen %d len %d", g.Gen(), g.Len())
	}

	fakes := newFakes(2)
	swapFakes(t, g, fakes)
	if g.Gen() != 1 || g.Len() != 42 {
		t.Fatalf("after swap: gen %d len %d", g.Gen(), g.Len())
	}

	g.Free()
	g.Free() // idempotent
	for _, f := range fakes {
		if !f.freed.Load() {
			t.Fatalf("replica %d not freed", f.id)
		}
	}
	if _, err := g.Search([]float32{1}, 1, nil); !errors.Is(err, ssam.ErrFreed) {
		t.Fatalf("search after free: %v", err)
	}
	if _, err := g.Upsert(1, []float32{1}); !errors.Is(err, ssam.ErrFreed) {
		t.Fatalf("upsert after free: %v", err)
	}
	if _, err := g.Swap(func(int) (Backend, error) { return nil, nil }, nil, 1); !errors.Is(err, ssam.ErrFreed) {
		t.Fatalf("swap after free: %v", err)
	}
}

// TestPickPowerOfTwoChoices pins the router's selection rule: among
// untried slots two random candidates are drawn and the lower load
// score wins, so a slot with a 1000x lower EWMA must win every draw
// it appears in (~2/3 of picks with three slots).
func TestPickPowerOfTwoChoices(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	g.slots[0].ewmaNanos.Store(1_000_000)
	g.slots[1].ewmaNanos.Store(1_000)
	g.slots[2].ewmaNanos.Store(1_000_000)

	const trials = 300
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		p := g.pick([]bool{false, false, false})
		if p < 0 || p > 2 {
			t.Fatalf("pick returned %d", p)
		}
		counts[p]++
	}
	// Slot 1 is a candidate with probability 2/3 and wins every time
	// it is; leave slack for rng variance but demand a clear majority.
	if counts[1] < trials/2 {
		t.Fatalf("fast slot picked %d/%d times, want a clear majority (counts %v)", counts[1], trials, counts)
	}
	// Equal-score candidates tie to the lower index: slot 2 only wins
	// draws it isn't in, i.e. never.
	if counts[2] != 0 {
		t.Fatalf("slot 2 picked %d times despite equal score and higher index", counts[2])
	}

	// Load steers too: pile in-flight onto slot 1 and it must stop
	// winning every draw against the idle slots.
	g.slots[1].inFlight.Add(10_000)
	won := 0
	for i := 0; i < trials; i++ {
		if g.pick([]bool{false, false, false}) == 1 {
			won++
		}
	}
	g.slots[1].inFlight.Add(-10_000)
	if won != 0 {
		t.Fatalf("overloaded slot still picked %d/%d times", won, trials)
	}

	// Tried slots are excluded; one candidate short-circuits; none = -1.
	for i := 0; i < 50; i++ {
		if p := g.pick([]bool{false, true, false}); p == 1 {
			t.Fatal("pick returned a tried slot")
		}
	}
	if p := g.pick([]bool{true, false, true}); p != 1 {
		t.Fatalf("single untried slot: pick = %d, want 1", p)
	}
	if p := g.pick([]bool{true, true, true}); p != -1 {
		t.Fatalf("all tried: pick = %d, want -1", p)
	}
}

// TestHedgeDelayBudget pins the adaptive hedge budget: HedgeMax while
// cold, the observed p99 once hedgeMinSamples latencies accumulate,
// always clamped to [HedgeMin, HedgeMax], and recomputed only on the
// hedgeRecompute cadence.
func TestHedgeDelayBudget(t *testing.T) {
	newG := func() *Group {
		g, err := NewGroup(Options{Replicas: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Free)
		return g
	}

	g := newG()
	if d := g.HedgeDelay(); d != g.opts.HedgeMax {
		t.Fatalf("cold group hedge delay %v, want HedgeMax %v", d, g.opts.HedgeMax)
	}
	for i := 0; i < hedgeMinSamples-1; i++ {
		g.recordLatency(5 * time.Millisecond)
	}
	if d := g.HedgeDelay(); d != g.opts.HedgeMax {
		t.Fatalf("below min samples hedge delay %v, want HedgeMax", d)
	}
	g.recordLatency(5 * time.Millisecond) // crosses hedgeMinSamples: first recompute
	if d := g.HedgeDelay(); d != 5*time.Millisecond {
		t.Fatalf("warm hedge delay %v, want 5ms p99", d)
	}
	// Off-cadence samples must not move the cached delay: the p99 sort
	// runs every hedgeRecompute samples, not per query.
	for i := 0; i < 10; i++ {
		g.recordLatency(90 * time.Millisecond)
	}
	if d := g.HedgeDelay(); d != 5*time.Millisecond {
		t.Fatalf("hedge delay recomputed off cadence: %v", d)
	}

	// Clamping: a sub-millisecond p99 pins to HedgeMin, a slow one to
	// HedgeMax.
	g = newG()
	for i := 0; i < hedgeMinSamples; i++ {
		g.recordLatency(50 * time.Microsecond)
	}
	if d := g.HedgeDelay(); d != g.opts.HedgeMin {
		t.Fatalf("fast p99 hedge delay %v, want HedgeMin %v", d, g.opts.HedgeMin)
	}
	g = newG()
	for i := 0; i < hedgeMinSamples; i++ {
		g.recordLatency(3 * time.Second)
	}
	if d := g.HedgeDelay(); d != g.opts.HedgeMax {
		t.Fatalf("slow p99 hedge delay %v, want HedgeMax %v", d, g.opts.HedgeMax)
	}
}

func TestSearchAndBatchRouting(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	fakes := newFakes(2)
	swapFakes(t, g, fakes)

	resp, err := g.Search([]float32{1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Gen != 1 || resp.Hedges != 0 || resp.Failovers != 0 {
		t.Fatalf("response %+v", resp)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != resp.Replica {
		t.Fatalf("answer %v did not come from reported replica %d", resp.Results, resp.Replica)
	}

	br, err := g.SearchBatch([][]float32{{1}, {2}, {3}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("batch results %d, want 3", len(br.Results))
	}
	for _, rs := range br.Results {
		if rs[0].ID != br.Replica {
			t.Fatalf("batch split across replicas: %v served by %d", rs, br.Replica)
		}
	}

	st := g.Stats()
	if st.Gen != 1 || st.Swaps != 1 || len(st.Replicas) != 2 {
		t.Fatalf("stats %+v", st)
	}
	var queries uint64
	for _, rs := range st.Replicas {
		queries += rs.Queries
	}
	if queries != 2 {
		t.Fatalf("attempt count %d, want 2", queries)
	}
}

func TestFailoverOnError(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	swapFakes(t, g, newFakes(2))
	// Bias routing so slot 0 is always the first pick, then kill it.
	g.slots[0].ewmaNanos.Store(1_000)
	g.slots[1].ewmaNanos.Store(1_000_000_000)
	injected := errors.New("injected replica fault")
	g.SetFaultHook(func(replica, _ int) error {
		if replica == 0 {
			return injected
		}
		return nil
	})

	resp, err := g.Search([]float32{1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Replica != 1 || resp.Failovers != 1 || resp.Hedges != 0 {
		t.Fatalf("response %+v, want failover to replica 1", resp)
	}
	if s := g.Stat(0); s.Errors != 1 {
		t.Fatalf("slot 0 stats %+v, want 1 error", s)
	}
	if s := g.Stat(1); s.Failovers != 1 {
		t.Fatalf("slot 1 stats %+v, want 1 failover received", s)
	}

	// Clearing the hook restores slot 0.
	g.SetFaultHook(nil)
	if _, err := g.Search([]float32{1}, 1, nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestAllReplicasFailed(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	swapFakes(t, g, newFakes(3))
	injected := errors.New("injected total outage")
	g.SetFaultHook(func(int, int) error { return injected })

	_, err = g.Search([]float32{1}, 1, nil)
	if !errors.Is(err, injected) {
		t.Fatalf("error %v does not wrap the replica failure", err)
	}
	var attempts uint64
	for i := 0; i < 3; i++ {
		attempts += g.Stat(i).Queries
	}
	if attempts != 3 {
		t.Fatalf("attempts %d, want every replica tried exactly once", attempts)
	}
}

// TestHedgeFiresAndWins drives the hedge path through the timer seam:
// the primary replica hangs, the injected hedge timer is already hot,
// and the hedge attempt's answer must win.
func TestHedgeFiresAndWins(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Hedge: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	fakes := newFakes(2)
	fakes[0].searchFn = func([]float32, int) (Answer, error) {
		<-release
		return fakes[0].answer(), nil
	}
	swapFakes(t, g, fakes)
	g.slots[0].ewmaNanos.Store(1_000) // slot 0 is always the primary
	g.slots[1].ewmaNanos.Store(1_000_000_000)
	immediateHedge(g)

	resp, err := g.Search([]float32{1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Replica != 1 || resp.Hedges != 1 || resp.Failovers != 0 {
		t.Fatalf("response %+v, want hedge answer from replica 1", resp)
	}
	if s := g.Stat(1); s.Hedges != 1 {
		t.Fatalf("slot 1 stats %+v, want 1 hedge received", s)
	}
	close(release) // let the abandoned primary straggler finish
	g.Free()       // Free waits out stragglers; must not deadlock or race a freed backend
}

// TestErrorWaitsForOutstandingHedge pins the sequencing rule: when the
// primary errors while a hedge is already in flight, the query waits
// for the hedge instead of burning a failover (which, with two
// replicas, would wrongly exhaust the group).
func TestErrorWaitsForOutstandingHedge(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Hedge: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	primaryGo := make(chan struct{})
	hedgeStarted := make(chan struct{})
	hedgeGo := make(chan struct{})
	fakes := newFakes(2)
	fakes[0].searchFn = func([]float32, int) (Answer, error) {
		<-primaryGo
		return Answer{}, errors.New("primary failed")
	}
	fakes[1].searchFn = func([]float32, int) (Answer, error) {
		close(hedgeStarted)
		<-hedgeGo
		return fakes[1].answer(), nil
	}
	swapFakes(t, g, fakes)
	g.slots[0].ewmaNanos.Store(1_000)
	g.slots[1].ewmaNanos.Store(1_000_000_000)
	immediateHedge(g)

	type result struct {
		resp Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := g.Search([]float32{1}, 1, nil)
		done <- result{resp, err}
	}()
	<-hedgeStarted   // hedge is in flight
	close(primaryGo) // now the primary errors under an outstanding hedge
	close(hedgeGo)   // and the hedge answers
	r := <-done
	if r.err != nil {
		t.Fatalf("query failed despite a healthy hedge: %v", r.err)
	}
	if r.resp.Replica != 1 || r.resp.Hedges != 1 || r.resp.Failovers != 0 {
		t.Fatalf("response %+v, want hedge win with no failover", r.resp)
	}
	g.Free()
}

func TestDeadline(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Deadline: 5 * time.Millisecond, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	fakes := newFakes(2)
	for _, f := range fakes {
		f.searchFn = func([]float32, int) (Answer, error) {
			<-release
			return Answer{}, nil
		}
	}
	swapFakes(t, g, fakes)

	_, err = g.Search([]float32{1}, 1, nil)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("error %v, want ErrDeadline", err)
	}
	close(release)
	g.Free()
}

// TestSwapDrainsOldGeneration is the zero-downtime contract: cutover
// is immediate (new queries serve the new generation while an old
// query is still in flight), Swap does not return until the old
// generation drains, the straggler still gets its old-generation
// answer, and only then are the old backends freed.
func TestSwapDrainsOldGeneration(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()

	release := make(chan struct{})
	started := make(chan struct{}, 2)
	oldFakes := newFakes(2)
	for i := range oldFakes {
		f := oldFakes[i]
		f.searchFn = func([]float32, int) (Answer, error) {
			started <- struct{}{}
			<-release
			return f.answer(), nil
		}
	}
	swapFakes(t, g, oldFakes)

	type result struct {
		resp Response
		err  error
	}
	inFlight := make(chan result, 1)
	go func() {
		resp, err := g.Search([]float32{1}, 1, nil)
		inFlight <- result{resp, err}
	}()
	<-started // the old generation now has a live query

	newFakes := newFakes(2)
	for i := range newFakes {
		newFakes[i].id = 100 + i
	}
	swapDone := make(chan SwapStats, 1)
	go func() {
		st, err := g.Swap(func(i int) (Backend, error) { return newFakes[i], nil }, nil, 1)
		if err != nil {
			t.Errorf("swap: %v", err)
		}
		swapDone <- st
	}()

	// Cutover happens before the drain: wait for gen 2 to serve.
	deadline := time.Now().Add(5 * time.Second)
	for g.Gen() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("cutover never happened")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := g.Search([]float32{2}, 1, nil)
	if err != nil {
		t.Fatalf("search during drain: %v", err)
	}
	if resp.Gen != 2 || resp.Results[0].ID < 100 {
		t.Fatalf("query during drain served gen %d result %v, want new generation", resp.Gen, resp.Results)
	}

	// Swap must still be blocked on the old query.
	select {
	case <-swapDone:
		t.Fatal("Swap returned while the old generation had a query in flight")
	case <-time.After(20 * time.Millisecond):
	}
	for _, f := range oldFakes {
		if f.freed.Load() {
			t.Fatal("old backend freed before drain")
		}
	}

	close(release)
	st := <-swapDone
	if st.Gen != 2 || st.Replicas != 2 {
		t.Fatalf("swap stats %+v", st)
	}
	r := <-inFlight
	if r.err != nil {
		t.Fatalf("in-flight query dropped across swap: %v", r.err)
	}
	if r.resp.Gen != 1 || r.resp.Results[0].ID >= 100 {
		t.Fatalf("in-flight query answered by gen %d result %v, want its own old generation", r.resp.Gen, r.resp.Results)
	}
	for _, f := range oldFakes {
		if !f.freed.Load() {
			t.Fatal("old backend not freed after drain")
		}
	}
	for _, f := range newFakes {
		if f.freed.Load() {
			t.Fatal("new backend freed by swap")
		}
	}
}

// TestSwapAbortLeavesOldServing pins that a failed build or warm
// aborts the swap with the old generation untouched and every
// half-built new backend freed.
func TestSwapAbortLeavesOldServing(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	oldFakes := newFakes(2)
	swapFakes(t, g, oldFakes)

	// Build error on one slot.
	leaked := &fakeBackend{id: 7}
	_, err = g.Swap(func(i int) (Backend, error) {
		if i == 1 {
			return nil, errors.New("build exploded")
		}
		return leaked, nil
	}, nil, 1)
	if err == nil || g.Gen() != 1 {
		t.Fatalf("failed build: err %v, gen %d", err, g.Gen())
	}
	if !leaked.freed.Load() {
		t.Fatal("sibling backend leaked after build error")
	}

	// Warm error.
	warmFail := newFakes(2)
	for _, f := range warmFail {
		f.searchFn = func([]float32, int) (Answer, error) {
			return Answer{}, errors.New("warm exploded")
		}
	}
	_, err = g.Swap(func(i int) (Backend, error) { return warmFail[i], nil },
		[][]float32{{1}}, 1)
	if err == nil || g.Gen() != 1 {
		t.Fatalf("failed warm: err %v, gen %d", err, g.Gen())
	}
	for _, f := range warmFail {
		if !f.freed.Load() {
			t.Fatal("warm-failed backend leaked")
		}
	}

	// The old generation never noticed.
	if resp, err := g.Search([]float32{1}, 1, nil); err != nil || resp.Gen != 1 {
		t.Fatalf("old generation disturbed: %v %+v", err, resp)
	}
	if g.Stats().Swaps != 1 {
		t.Fatalf("aborted swaps counted: %d", g.Stats().Swaps)
	}
}

func TestMutationFanout(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	fakes := newFakes(3)
	swapFakes(t, g, fakes)

	seq, err := g.Upsert(7, []float32{1})
	if err != nil || seq != 1 {
		t.Fatalf("upsert: seq %d err %v", seq, err)
	}
	seq, err = g.Upsert(8, []float32{2})
	if err != nil || seq != 2 {
		t.Fatalf("second upsert: seq %d err %v", seq, err)
	}
	seq, hit, err := g.Delete(7)
	if err != nil || !hit || seq != 3 {
		t.Fatalf("delete: seq %d hit %v err %v", seq, hit, err)
	}
	if _, err := g.CompactNow(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	for _, f := range fakes {
		f.mu.Lock()
		upserts, deletes := f.upserts, f.deletes
		f.mu.Unlock()
		if len(upserts) != 2 || upserts[0] != 7 || upserts[1] != 8 {
			t.Fatalf("replica %d upserts %v, want identical order [7 8]", f.id, upserts)
		}
		if len(deletes) != 1 || deletes[0] != 7 {
			t.Fatalf("replica %d deletes %v", f.id, deletes)
		}
	}
}

func TestMutationDivergence(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	fakes := newFakes(2)
	fakes[1].seqStep = 2 // replica 1 commits a different sequence number
	swapFakes(t, g, fakes)

	if _, err := g.Upsert(1, []float32{1}); err == nil {
		t.Fatal("seq divergence on upsert not surfaced")
	} else if want := "divergence"; !strings.Contains(err.Error(), want) {
		t.Fatalf("upsert error %q does not mention %q", err, want)
	}

	g2, err := NewGroup(Options{Replicas: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Free()
	fakes2 := newFakes(2)
	fakes2[1].delMiss = true // replica 1 reports a miss where replica 0 hit
	swapFakes(t, g2, fakes2)
	if _, _, err := g2.Delete(1); err == nil {
		t.Fatal("hit divergence on delete not surfaced")
	}
}

// TestConcurrentSearchDuringSwaps is a miniature soak: queries hammer
// the group while generations are swapped underneath them; every
// query must get a valid answer from a coherent generation, never an
// error or a freed backend (the race detector guards the latter).
func TestConcurrentSearchDuringSwaps(t *testing.T) {
	g, err := NewGroup(Options{Replicas: 2, Hedge: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	swapFakes(t, g, newFakes(2))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := g.Search([]float32{1}, 1, nil)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if len(resp.Results) != 1 {
					select {
					case errs <- fmt.Errorf("malformed answer %+v", resp):
					default:
					}
					return
				}
			}
		}()
	}
	const swaps = 10
	for i := 0; i < swaps; i++ {
		if _, err := g.Swap(func(j int) (Backend, error) {
			return &fakeBackend{id: 10*i + j}, nil
		}, nil, 1); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query failed during swaps: %v", err)
	}
	if got := g.Gen(); got != swaps+1 {
		t.Fatalf("gen %d after %d swaps", got, swaps+1)
	}
}
