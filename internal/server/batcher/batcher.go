// Package batcher coalesces concurrent single-query kNN requests into
// region batch searches by group commit, the serving-layer analogue of
// the paper's host broadcasting queries to the vaults as they arrive:
// batches come from load, never from a clock. At most P batches execute
// at once, one on each of up to P runners that live until Close, P being
// GOMAXPROCS when the Batcher was made. A query that arrives while a
// runner is free leaves at once, as a batch of one unless others arrived
// in the same instant; otherwise it waits in one FIFO queue, and the
// moment any batch returns, the head of the queue and every queued query
// sharing its k (up to MaxBatch) leave together as the next batch. A
// batch is homogeneous in k because one Region.SearchBatch call answers
// it, which on the exact scan reads the dataset once for the whole batch
// (on the indexes it fans out across the host cores, on the simulated
// device it amortizes query broadcast).
package batcher

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ssam"
	"ssam/internal/obs"
	"ssam/internal/par"
)

// ErrClosed is returned by Search after Close.
var ErrClosed = errors.New("batcher: closed")

// SearchFunc answers a homogeneous batch of queries, one result slice
// per query. The span is nil unless a request in the batch carried a
// sampled trace, in which case the engine's sub-stages (per-vault
// scans, device serialization) nest under it. Region.SearchBatchSpan
// satisfies this signature.
type SearchFunc func(qs [][]float32, k int, sp *obs.Span) ([][]ssam.Result, error)

// Options tunes a Batcher. Zero values select the defaults.
type Options struct {
	// MaxBatch caps the queries one batch holds (default 64).
	MaxBatch int
	// OnFlush, if set, is called once per executed batch with its size,
	// the SearchFunc latency and the longest any of its queries waited
	// in the queue (next to nothing when a slot was free): the stats hook.
	OnFlush func(size int, exec, queued time.Duration)
}

const defaultMaxBatch = 64

// Batcher coalesces Search calls into SearchFunc batches. Create with
// New; a zero Batcher is not usable.
type Batcher struct {
	search   SearchFunc
	maxBatch int
	slots    int // P: runners, and so batches that may execute at once
	onFlush  func(int, time.Duration, time.Duration)

	mu      sync.Mutex
	wake    sync.Cond    // on mu: where a runner parks while the queue is empty
	queue   []request    // FIFO; a runner takes from its head
	started int          // runner goroutines, at most slots, each alive until Close
	pending atomic.Int64 // queries admitted but not yet answered
	closed  bool
	runners sync.WaitGroup
}

// request is one admitted query. The spans are nil unless the request
// carried a sampled trace: queue (enqueue → batch taken) and exec (the
// shared SearchFunc call) are both children of its batch span.
type request struct {
	q                  []float32
	k                  int
	ctx                context.Context
	ch                 chan outcome // buffered: a departed waiter never blocks the runner
	enq                time.Time
	batch, queue, exec *obs.Span
}

// outcome is a query's row of its batch's results, or the batch's error.
type outcome struct {
	res [][]ssam.Result
	err error
}

// New returns a Batcher delivering batches to search.
func New(search SearchFunc, opts Options) *Batcher {
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	b := &Batcher{search: search, maxBatch: opts.MaxBatch, slots: runtime.GOMAXPROCS(0), onFlush: opts.OnFlush}
	b.wake.L = &b.mu
	return b
}

// Search answers one query through a batch: it blocks until the batch
// has executed or ctx is done. A query whose ctx ends before its batch
// is taken is never executed; once taken it runs with the batch and the
// result is discarded. Safe for concurrent use.
func (b *Batcher) Search(ctx context.Context, q []float32, k int) ([]ssam.Result, error) {
	res, err := b.SearchSpan(ctx, q, k, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchSpan is Search answered as a batch of one, its row of the batch's
// results: sp (the request's "batch" span, nil for untraced requests)
// gains a "queue" child covering enqueue → batch taken and an "exec"
// child covering the shared batch execution, tagged with the batch size.
func (b *Batcher) SearchSpan(ctx context.Context, q []float32, k int, sp *obs.Span) ([][]ssam.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("batcher: k must be positive, got %d", k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan outcome, 1)

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.queue = append(b.queue, request{
		q: q, k: k, ctx: ctx, ch: ch, enq: time.Now(), batch: sp, queue: sp.Start("queue"),
	})
	b.pending.Add(1)
	// A runner, not this goroutine, executes the batch, so that Search can
	// return on ctx.Done; with every runner busy, the first free takes it.
	if b.started < b.slots {
		b.started++
		b.runners.Add(1)
		go b.run()
	} else {
		b.wake.Signal()
	}
	b.mu.Unlock()

	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		// Withdraw if still queued; else a runner took (or dropped) it.
		b.mu.Lock()
		if i := slices.IndexFunc(b.queue, func(r request) bool { return r.ch == ch }); i >= 0 {
			b.queue = slices.Delete(b.queue, i, i+1)
			b.pending.Add(-1)
		}
		b.mu.Unlock()
		return nil, ctx.Err()
	}
}

// take moves the next batch from the queue into bt: the oldest request
// and every one sharing its k, up to maxBatch, in arrival order.
// Requests whose ctx has ended are dropped unexecuted (their Search is
// returning ctx.Err). An empty bt means there was nothing to take. The
// caller holds b.mu.
func (b *Batcher) take(bt []request) []request {
	bt = bt[:0]
	keep := b.queue[:0]
	for _, r := range b.queue {
		switch {
		case r.ctx.Err() != nil:
			b.pending.Add(-1)
		case len(bt) == 0 || r.k == bt[0].k && len(bt) < b.maxBatch:
			bt = append(bt, r)
		default:
			keep = append(keep, r)
		}
	}
	clear(b.queue[len(keep):]) // drop the references the moved requests held
	b.queue = keep
	return bt
}

// run is one runner: it takes a batch, executes it, fans the results
// (or the shared error) out to every waiter, and keeps going with what
// queued up meanwhile, in a batch and query list of its own that it
// reuses. With the queue empty it parks, and exits once it is closed.
func (b *Batcher) run() {
	defer b.runners.Done()
	var bt []request
	var queries [][]float32
	b.mu.Lock()
	for {
		if bt = b.take(bt); len(bt) == 0 {
			if b.closed {
				break
			}
			b.wake.Wait()
			continue
		}
		b.mu.Unlock()
		start := time.Now()
		queries = queries[:0]
		// The engine's sub-stage spans attach under the first traced
		// request's exec span — the batch runs once, so the work is
		// recorded once rather than duplicated into every sampled trace.
		var execSp *obs.Span
		for i := range bt {
			r := &bt[i]
			queries = append(queries, r.q)
			if r.batch != nil {
				r.queue.End()
				r.exec = r.batch.Start("exec", obs.Tag{Key: "batch_size", Value: len(bt)})
				if execSp == nil {
					execSp = r.exec
				}
			}
		}
		// A panic in the search is the batch's error, delivered to every
		// query in it; the runner carries on with the queue.
		var results [][]ssam.Result
		err := par.Safe(func() (err error) {
			results, err = b.search(queries, bt[0].k, execSp)
			return err
		})
		elapsed := time.Since(start)
		for i := range bt {
			bt[i].exec.End()
		}
		if err == nil && len(results) != len(bt) {
			err = fmt.Errorf("batcher: search returned %d results for %d queries", len(results), len(bt))
		}
		b.pending.Add(-int64(len(bt)))
		if b.onFlush != nil {
			// The queue is FIFO, so the head waited longest.
			b.onFlush(len(bt), elapsed, start.Sub(bt[0].enq))
		}
		for i := range bt {
			if err != nil {
				bt[i].ch <- outcome{err: err}
			} else {
				bt[i].ch <- outcome{res: results[i : i+1 : i+1]}
			}
		}
		// What the scratch still points at is the callers' now.
		clear(bt)
		clear(queries)
		b.mu.Lock()
	}
	b.mu.Unlock()
}

// Pending returns the number of queries admitted but not yet answered
// (the batcher's queue depth).
func (b *Batcher) Pending() int { return int(b.pending.Load()) }

// Close stops admission — subsequent Search calls fail with ErrClosed —
// and returns after every query admitted before it has been delivered
// and every runner has exited: the runners drain the queue, then leave.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.wake.Broadcast()
	b.mu.Unlock()
	b.runners.Wait()
}
