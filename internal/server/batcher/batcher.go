// Package batcher coalesces concurrent single-query kNN requests into
// region batch searches, the serving-layer analogue of the paper's
// query batching across vaults: many independent front-end requests
// arriving within a short window are answered by one SearchBatch call,
// which on the exact scan reads the dataset once for the whole batch
// (on the indexes it fans out across the host cores, on the simulated
// device it amortizes query broadcast).
//
// Requests are grouped per k — a batch must be homogeneous in k
// because Region.SearchBatch answers every query with the same
// neighbor count. A batch is flushed when either the batching window
// elapses (bounding added latency) or the batch reaches its size cap
// (bounding memory and per-flush work).
package batcher

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ssam"
	"ssam/internal/obs"
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
	// Window bounds how long the first request of a batch waits for
	// company (default 2ms).
	Window time.Duration
	// MaxBatch flushes a batch immediately once it holds this many
	// queries (default 64).
	MaxBatch int
	// OnFlush, if set, is called once per executed batch with its size
	// and the SearchFunc latency — the stats hook.
	OnFlush func(size int, d time.Duration)
}

const (
	defaultWindow   = 2 * time.Millisecond
	defaultMaxBatch = 64
)

// Batcher coalesces Search calls into SearchFunc batches. Create with
// New; a zero Batcher is not usable.
type Batcher struct {
	search   SearchFunc
	window   time.Duration
	maxBatch int
	onFlush  func(int, time.Duration)

	mu      sync.Mutex
	buckets map[int]*bucket // open batch per k
	pending int             // queries admitted but not yet answered
	closed  bool
}

// bucket is one forming batch (all queries share k).
type bucket struct {
	k       int
	queries [][]float32
	waiters []chan outcome
	traced  []tracedReq // span bookkeeping for sampled requests only
	timer   *time.Timer
}

// tracedReq tracks one sampled request's spans through the batch:
// queue (enqueue → flush) and exec (the shared SearchFunc call), both
// children of the request's batch span. Untraced requests never enter
// the list, so tracing off costs the batcher nothing.
type tracedReq struct{ batch, queue, exec *obs.Span }

type outcome struct {
	res []ssam.Result
	err error
}

// New returns a Batcher delivering batches to search.
func New(search SearchFunc, opts Options) *Batcher {
	if opts.Window <= 0 {
		opts.Window = defaultWindow
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = defaultMaxBatch
	}
	return &Batcher{
		search:   search,
		window:   opts.Window,
		maxBatch: opts.MaxBatch,
		onFlush:  opts.OnFlush,
		buckets:  make(map[int]*bucket),
	}
}

// Search enqueues one query and blocks until its batch executes (or
// ctx is done; the query still executes with its batch, but the result
// is discarded). Safe for concurrent use.
func (b *Batcher) Search(ctx context.Context, q []float32, k int) ([]ssam.Result, error) {
	return b.SearchSpan(ctx, q, k, nil)
}

// SearchSpan is Search for a request carrying a sampled trace: sp (the
// request's "batch" span, nil for untraced requests) gains a "queue"
// child covering enqueue → flush and an "exec" child covering the
// shared batch execution, tagged with the batch size.
func (b *Batcher) SearchSpan(ctx context.Context, q []float32, k int, sp *obs.Span) ([]ssam.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("batcher: k must be positive, got %d", k)
	}
	ch := make(chan outcome, 1)

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	bk := b.buckets[k]
	if bk == nil {
		bk = &bucket{k: k}
		b.buckets[k] = bk
		bk.timer = time.AfterFunc(b.window, func() { b.flushExpired(bk) })
	}
	bk.queries = append(bk.queries, q)
	bk.waiters = append(bk.waiters, ch)
	if sp != nil {
		bk.traced = append(bk.traced, tracedReq{batch: sp, queue: sp.Start("queue")})
	}
	b.pending++
	full := len(bk.queries) >= b.maxBatch
	if full {
		delete(b.buckets, k)
		bk.timer.Stop()
	}
	b.mu.Unlock()

	if full {
		// The size-triggered flush runs on the caller that completed
		// the batch; its own result arrives on ch below.
		b.run(bk)
	}

	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// flushExpired is the window-timeout path (runs on the timer
// goroutine). The bucket may already have been flushed by the size
// trigger or by Close; the map identity check detects that.
func (b *Batcher) flushExpired(bk *bucket) {
	b.mu.Lock()
	if b.buckets[bk.k] != bk {
		b.mu.Unlock()
		return
	}
	delete(b.buckets, bk.k)
	b.mu.Unlock()
	b.run(bk)
}

// run executes one detached batch and fans results (or the shared
// error) out to every waiter. Waiter channels are buffered, so a
// departed (ctx-cancelled) waiter never blocks the batch.
func (b *Batcher) run(bk *bucket) {
	size := len(bk.queries)
	for i := range bk.traced {
		tr := &bk.traced[i]
		tr.queue.End()
		tr.exec = tr.batch.Start("exec", obs.Tag{Key: "batch_size", Value: size})
	}
	// The engine's sub-stage spans attach under the first traced
	// request's exec span — the batch runs once, so the work is recorded
	// once rather than duplicated into every sampled trace.
	var execSp *obs.Span
	if len(bk.traced) > 0 {
		execSp = bk.traced[0].exec
	}
	start := time.Now()
	results, err := b.search(bk.queries, bk.k, execSp)
	elapsed := time.Since(start)
	for i := range bk.traced {
		bk.traced[i].exec.End()
	}
	if err == nil && len(results) != len(bk.queries) {
		err = fmt.Errorf("batcher: search returned %d results for %d queries", len(results), len(bk.queries))
	}

	b.mu.Lock()
	b.pending -= len(bk.queries)
	b.mu.Unlock()
	if b.onFlush != nil {
		b.onFlush(len(bk.queries), elapsed)
	}

	for i, ch := range bk.waiters {
		if err != nil {
			ch <- outcome{err: err}
		} else {
			ch <- outcome{res: results[i]}
		}
	}
}

// Pending returns the number of queries admitted but not yet answered
// (the batcher's queue depth).
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// Close drains the batcher: every open bucket is flushed immediately
// (without waiting out its window) and subsequent Search calls fail
// with ErrClosed. Close returns after the drained batches have been
// delivered.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	drain := make([]*bucket, 0, len(b.buckets))
	for k, bk := range b.buckets {
		bk.timer.Stop()
		delete(b.buckets, k)
		drain = append(drain, bk)
	}
	b.mu.Unlock()
	for _, bk := range drain {
		b.run(bk)
	}
}
