package batcher

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ssam"
	"ssam/internal/obs"
)

// engine is the SearchFunc the tests drive: it logs every batch on
// entry, tracks how many calls are in flight at once, and — when gate
// is set — announces each call on entered and holds it until the test
// lets one call through (open) or all of them (close(gate)). Query i of
// a batch is answered with one Result whose ID is the query's first
// coordinate and whose Dist is k, so a waiter can tell its own answer.
type engine struct {
	gate    chan struct{}
	entered chan struct{}
	err     error

	mu                 sync.Mutex
	batches            [][]int // first coordinate of each query, per call
	ks                 []int
	inFlight, maxInFly int
}

func gated() *engine {
	// entered is sized past any test's number of calls, so the engine
	// never blocks on a test that does not read every announcement.
	return &engine{gate: make(chan struct{}), entered: make(chan struct{}, 1024)}
}

func (e *engine) search(qs [][]float32, k int, _ *obs.Span) ([][]ssam.Result, error) {
	ids := make([]int, len(qs))
	out := make([][]ssam.Result, len(qs))
	for i, q := range qs {
		ids[i] = int(q[0])
		out[i] = []ssam.Result{{ID: ids[i], Dist: float64(k)}}
	}
	e.mu.Lock()
	e.batches = append(e.batches, ids)
	e.ks = append(e.ks, k)
	e.inFlight++
	e.maxInFly = max(e.maxInFly, e.inFlight)
	e.mu.Unlock()
	if e.gate != nil {
		e.entered <- struct{}{}
		<-e.gate
	}
	e.mu.Lock()
	e.inFlight--
	e.mu.Unlock()
	if e.err != nil {
		return nil, e.err
	}
	return out, nil
}

// open lets exactly one held call return.
func (e *engine) open() { e.gate <- struct{}{} }

// log returns the batches seen so far, skipping the first skip calls.
func (e *engine) log(skip int) ([][]int, []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][]int(nil), e.batches[skip:]...), append([]int(nil), e.ks[skip:]...)
}

func query(id int) []float32 { return []float32{float32(id), 0} }

// waitFor polls cond: the batcher has no event for "admitted", only
// the Pending count, so the tests wait on that.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(20 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// submit issues one Search from its own goroutine and returns once the
// batcher has admitted it, so consecutive submits queue in call order.
// The returned channel yields the Search error after checking that a
// successful answer is this query's own.
func submit(t *testing.T, b *Batcher, ctx context.Context, id, k int) <-chan error {
	t.Helper()
	before := b.Pending()
	done := make(chan error, 1)
	go func() {
		res, err := b.Search(ctx, query(id), k)
		if err == nil && (len(res) != 1 || res[0].ID != id || res[0].Dist != float64(k)) {
			err = fmt.Errorf("query %d at k=%d was answered %v", id, k, res)
		}
		done <- err
	}()
	waitFor(t, "admission", func() bool { return b.Pending() > before })
	return done
}

// occupy returns a batcher over a gated engine with every slot taken by
// a held batch of one (ids -1, -2, ...): what arrives next must queue.
func occupy(t *testing.T, opts Options) (*Batcher, *engine, []<-chan error) {
	t.Helper()
	e := gated()
	b := New(e.search, opts)
	holders := make([]<-chan error, b.slots)
	for i := range holders {
		holders[i] = submit(t, b, context.Background(), -1-i, 1)
		<-e.entered // left at once: a slot was free
	}
	return b, e, holders
}

// finish opens the gate for good, waits for every waiter, and checks
// the invariants every test shares: no more than P calls were ever in
// flight, and nothing is left pending.
func finish(t *testing.T, b *Batcher, e *engine, done ...<-chan error) {
	t.Helper()
	close(e.gate)
	for i, ch := range done {
		if err := <-ch; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	b.Close()
	if e.maxInFly > b.slots {
		t.Fatalf("%d SearchFunc calls in flight at once, want <= P = %d", e.maxInFly, b.slots)
	}
	if n := b.Pending(); n != 0 {
		t.Fatalf("pending = %d at rest, want 0", n)
	}
}

// TestIdleRunsAtOnce: with a slot free a query does not wait for
// company; each leaves as a batch of one and reports no queue wait.
func TestIdleRunsAtOnce(t *testing.T) {
	e := &engine{}
	var sizes []int
	b := New(e.search, Options{OnFlush: func(size int, exec, queued time.Duration) {
		sizes = append(sizes, size) // one caller, so one runner at a time
		if exec < 0 || queued < 0 || queued > time.Second {
			t.Errorf("OnFlush(exec=%v, queued=%v)", exec, queued)
		}
	}})
	for id := 1; id <= 3; id++ {
		res, err := b.Search(context.Background(), query(id), 3)
		if err != nil || len(res) != 1 || res[0].ID != id {
			t.Fatalf("Search(%d) = %v, %v", id, res, err)
		}
	}
	b.Close()
	if batches, ks := e.log(0); !reflect.DeepEqual(batches, [][]int{{1}, {2}, {3}}) || !reflect.DeepEqual(ks, []int{3, 3, 3}) {
		t.Fatalf("batches = %v (k=%v), want three batches of one at k=3", batches, ks)
	}
	if !reflect.DeepEqual(sizes, []int{1, 1, 1}) {
		t.Fatalf("OnFlush sizes = %v, want [1 1 1]", sizes)
	}
	if _, err := b.Search(context.Background(), query(1), 0); err == nil {
		t.Fatal("k = 0 was accepted")
	}
}

// TestQueuedLeaveTogether: with every slot busy arrivals queue, and the
// first batch to return takes all of them as one batch, in arrival
// order, reporting how long its head waited.
func TestQueuedLeaveTogether(t *testing.T) {
	var mu sync.Mutex
	var waits []time.Duration
	b, e, done := occupy(t, Options{OnFlush: func(size int, _, queued time.Duration) {
		if size == 5 {
			mu.Lock()
			waits = append(waits, queued)
			mu.Unlock()
		}
	}})
	var headIn time.Time
	for id := 0; id < 5; id++ {
		done = append(done, submit(t, b, context.Background(), id, 3))
		if id == 0 {
			headIn = time.Now()
		}
	}
	if n := b.Pending(); n != b.slots+5 {
		t.Fatalf("pending = %d, want %d holders + 5 queued", n, b.slots)
	}
	if batches, _ := e.log(b.slots); len(batches) != 0 {
		t.Fatalf("queued queries executed with no slot free: %v", batches)
	}
	waited := time.Since(headIn)
	e.open()
	<-e.entered
	if batches, ks := e.log(b.slots); !reflect.DeepEqual(batches, [][]int{{0, 1, 2, 3, 4}}) || ks[0] != 3 {
		t.Fatalf("after one batch returned: batches = %v (k=%v), want one batch [0 1 2 3 4] at k=3", batches, ks)
	}
	finish(t, b, e, done...)
	if len(waits) != 1 || waits[0] < waited {
		t.Fatalf("OnFlush queue waits of the batch of 5 = %v, want one of at least %v", waits, waited)
	}
}

// TestMaxBatchSplits: a queue longer than MaxBatch leaves in
// MaxBatch-sized pieces, oldest first.
func TestMaxBatchSplits(t *testing.T) {
	b, e, done := occupy(t, Options{MaxBatch: 4})
	for id := 0; id < 10; id++ {
		done = append(done, submit(t, b, context.Background(), id, 2))
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	for i := range want {
		// Whichever held call this lets return, its runner takes the
		// head of the queue next.
		e.open()
		<-e.entered
		if batches, _ := e.log(b.slots); !reflect.DeepEqual(batches, want[:i+1]) {
			t.Fatalf("after %d returns: batches = %v, want %v", i+1, batches, want[:i+1])
		}
	}
	finish(t, b, e, done...)
}

// TestMixedKLeaveInFIFOOrder: a batch is homogeneous in k — the head
// of the queue picks it — and the other k keeps its place in line.
func TestMixedKLeaveInFIFOOrder(t *testing.T) {
	b, e, done := occupy(t, Options{})
	for id, k := range []int{3, 4, 3, 4, 4, 3} {
		done = append(done, submit(t, b, context.Background(), id, k))
	}
	e.open()
	<-e.entered
	e.open()
	<-e.entered
	batches, ks := e.log(b.slots)
	if !reflect.DeepEqual(batches, [][]int{{0, 2, 5}, {1, 3, 4}}) || !reflect.DeepEqual(ks, []int{3, 4}) {
		t.Fatalf("batches = %v at k = %v, want [0 2 5] at 3 then [1 3 4] at 4", batches, ks)
	}
	finish(t, b, e, done...)
}

// TestErrorFanOut: a failing SearchFunc must deliver its error to
// every waiter of the batch, not just one.
func TestErrorFanOut(t *testing.T) {
	boom := errors.New("vault fire")
	b, e, holders := occupy(t, Options{})
	e.err = boom // read by a call only after the gate lets it through
	var done []<-chan error
	for id := 0; id < 6; id++ {
		done = append(done, submit(t, b, context.Background(), id, 5))
	}
	close(e.gate)
	for i, ch := range append(holders, done...) {
		if err := <-ch; !errors.Is(err, boom) {
			t.Fatalf("waiter %d got %v, want the batch error", i, err)
		}
	}
	if batches, _ := e.log(b.slots); len(batches) != 1 || len(batches[0]) != 6 {
		t.Fatalf("queued batches = %v, want one batch of 6", batches)
	}
	if n := b.Pending(); n != 0 {
		t.Fatalf("pending = %d after error fan-out, want 0", n)
	}
	b.Close()
}

// TestShortResultIsAnError: a SearchFunc answering fewer queries than
// it was given fails the batch instead of mis-routing results.
func TestShortResultIsAnError(t *testing.T) {
	b := New(func([][]float32, int, *obs.Span) ([][]ssam.Result, error) { return nil, nil }, Options{})
	defer b.Close()
	if _, err := b.Search(context.Background(), query(1), 2); err == nil {
		t.Fatal("a batch answered with 0 results for 1 query succeeded")
	}
}

// TestCloseDrains: Close returns only after everything admitted —
// executing or still queued — has been delivered, and subsequent Search
// calls fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	b, e, done := occupy(t, Options{})
	done = append(done, submit(t, b, context.Background(), 1, 2))

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, "Close to stop admission", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	if _, err := b.Search(context.Background(), query(2), 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Search after Close = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with admitted queries undelivered")
	default:
	}
	close(e.gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the queue drained")
	}
	// Delivered before Close returned: nothing below blocks.
	for i, ch := range done {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("drained request %d failed: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d undelivered after Close returned", i)
		}
	}
	b.Close() // idempotent
}

// TestContextCancellation: a context that ends before the query's
// batch is taken keeps the query from ever executing; one that ends
// while the batch executes returns at once and costs the rest of the
// batch nothing.
func TestContextCancellation(t *testing.T) {
	b, e, done := occupy(t, Options{})

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Search(cancelled, query(100), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Search = %v, want context.Canceled", err)
	}
	if n := b.Pending(); n != b.slots {
		t.Fatalf("pending = %d after a pre-cancelled Search, want the %d holders", n, b.slots)
	}

	// Cancelled while queued: withdrawn, with every slot still held.
	qctx, qcancel := context.WithCancel(context.Background())
	queued := submit(t, b, qctx, 101, 2)
	qcancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("Search cancelled while queued = %v, want context.Canceled", err)
	}
	if n := b.Pending(); n != b.slots {
		t.Fatalf("pending = %d after withdrawing a queued query, want %d", n, b.slots)
	}

	// Cancelled while executing: 102 and 103 leave as one batch, which
	// the gate holds; 102's caller gives up and returns at once.
	xctx, xcancel := context.WithCancel(context.Background())
	gaveUp := submit(t, b, xctx, 102, 2)
	stayed := submit(t, b, context.Background(), 103, 2)
	e.open()
	<-e.entered
	xcancel()
	if err := <-gaveUp; !errors.Is(err, context.Canceled) {
		t.Fatalf("Search cancelled while executing = %v, want context.Canceled", err)
	}
	finish(t, b, e, append(done, stayed)...)

	batches, _ := e.log(b.slots)
	if !reflect.DeepEqual(batches, [][]int{{102, 103}}) {
		t.Fatalf("executed after the holders: %v, want only [102 103] (100 and 101 never run)", batches)
	}
}

// TestCancelledHeadIsSkipped: a runner taking the next batch drops
// queued queries whose context has already ended, even if their Search
// has not got round to withdrawing them.
func TestCancelledHeadIsSkipped(t *testing.T) {
	b, e, done := occupy(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Straight into the queue, as a Search that is slow to wake would
	// leave it: no goroutine of its own to withdraw it.
	b.mu.Lock()
	b.queue = append(b.queue, request{q: query(200), k: 7, ctx: ctx, ch: make(chan outcome, 1)})
	b.pending++
	b.mu.Unlock()
	done = append(done, submit(t, b, context.Background(), 201, 2))
	cancel()
	finish(t, b, e, done...)
	if batches, _ := e.log(b.slots); !reflect.DeepEqual(batches, [][]int{{201}}) {
		t.Fatalf("executed after the holders: %v, want only [201]", batches)
	}
}
