// Package hedge is the machine cluster and replica are both built on:
// one attempt race (primary, one hedge, failover, deadline) and one
// generation lifetime (a value that outlives its replacement until every
// lease on it is released). Whom to try and how long to wait is the
// caller's policy; nothing here knows a shard from a replica.
package hedge

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ssam/internal/obs"
	"ssam/internal/par"
)

// Gen is one published value and the leases held on it.
type Gen[T any] struct {
	Val     T
	refs    atomic.Int64
	drained chan struct{}
}

// Release drops one lease.
func (g *Gen[T]) Release() {
	if g.refs.Add(-1) == 0 {
		close(g.drained)
	}
}

// Drain drops the publisher's own lease and blocks until every other
// one is released; only then may the caller free what Val holds.
func (g *Gen[T]) Drain() {
	g.Release()
	<-g.drained
}

// Cell publishes one generation at a time. The zero Cell is empty.
type Cell[T any] struct {
	mu  sync.RWMutex
	cur *Gen[T]
}

// Acquire leases the current generation (nil when the cell is empty);
// under the read lock, so it cannot be swapped out and drained in between.
func (c *Cell[T]) Acquire() *Gen[T] {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.cur != nil {
		c.cur.refs.Add(1)
	}
	return c.cur
}

// Swap publishes *v (nil empties the cell) and returns the generation
// it replaced, for the caller to Drain and then free.
func (c *Cell[T]) Swap(v *T) (old *Gen[T]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, c.cur = c.cur, nil
	if v != nil {
		c.cur = &Gen[T]{Val: *v, drained: make(chan struct{})}
		c.cur.refs.Store(1) // the publisher's lease, dropped by Drain
	}
	return old
}

// The kinds of attempt, as Begin sees them and as span tags spell them.
const Primary, Hedge, Failover = "", "hedge", "failover"

// ErrDeadline is Race's answer when Plan.Deadline expires first.
var ErrDeadline = fmt.Errorf("hedge: deadline exceeded")

// Racer is what outlives one race: the fault hook and the timer seam.
type Racer struct {
	fault atomic.Pointer[func(target, attempt int) error]
	// Timer, when non-nil, stands in for time.NewTimer (tests fire it by hand).
	Timer func(d time.Duration) (<-chan time.Time, func() bool)
}

// SetFaultHook installs (nil removes) the hook run at the top of every
// attempt: an error fails the attempt, blocking makes it a straggler.
func (r *Racer) SetFaultHook(fn func(target, attempt int) error) { r.fault.Store(&fn) }

func (r *Racer) timer(d time.Duration) (<-chan time.Time, func() bool) {
	if d <= 0 {
		return nil, func() bool { return false }
	}
	if r.Timer != nil {
		return r.Timer(d)
	}
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Plan is one race's policy and accounting, supplied by the caller.
type Plan[T any] struct {
	// HedgeAfter and Deadline arm the two timers; zero disarms.
	HedgeAfter, Deadline time.Duration
	// Begin names the next attempt's target (-1: no one is left). It runs
	// before `go`, so the span it opens and the in-flight count it bumps
	// cover scheduling; done closes both when the attempt returns, however
	// long after the race abandoned it — a trace shows a straggler's length.
	Begin func(seq int, kind string) (target int, asp *obs.Span, done func(err error))
	Run   func(target, seq int, asp *obs.Span) (T, error)
}

// Info reports a race: who answered, extra launches, and what a deadline left running.
type Info struct{ Target, Hedges, Failovers, Outstanding int }

// Race launches the primary attempt, one hedge when the hedge timer
// fires, and a failover whenever an attempt fails with none outstanding.
// The first success wins; an error surfaces only when nothing is
// outstanding and Begin has no one left; the deadline returns ErrDeadline
// with the stragglers still running. Every attempt, abandoned or not,
// leases gen (the caller holds a lease already) until it returns, so
// nothing Run reads is freed under it.
func Race[T, G any](r *Racer, gen *Gen[G], p Plan[T]) (val T, info Info, err error) {
	type outcome struct {
		target int
		val    T
		err    error
	}
	// Two slots: the hedge fires once and a failover needs none
	// outstanding, so no straggler's send blocks on a reader that left.
	ch := make(chan outcome, 2)
	seq, outstanding := 0, 0
	launch := func(kind string) bool {
		target, asp, done := p.Begin(seq, kind)
		if target < 0 {
			return false
		}
		gen.refs.Add(1)
		go func(seq int) {
			defer gen.Release()
			out := outcome{target: target}
			// A panic is the attempt's error, like any other failure.
			out.err = par.Safe(func() (err error) {
				if hook := r.fault.Load(); hook != nil && *hook != nil {
					if err = (*hook)(target, seq); err != nil {
						return err
					}
				}
				out.val, err = p.Run(target, seq, asp)
				return err
			})
			if out.err != nil {
				if errors.As(out.err, new(*par.PanicError)) {
					asp.SetTag("panic", true)
				}
				asp.SetTag("error", out.err.Error())
			}
			done(out.err)
			ch <- out
		}(seq)
		seq++
		outstanding++
		return true
	}
	if !launch(Primary) {
		return val, info, fmt.Errorf("hedge: no target")
	}
	hedgeC, stopHedge := r.timer(p.HedgeAfter)
	defer stopHedge()
	deadC, stopDead := r.timer(p.Deadline)
	defer stopDead()
	for {
		select {
		case out := <-ch:
			if out.err == nil {
				info.Target = out.target
				return out.val, info, nil
			}
			if outstanding--; outstanding > 0 {
				continue // a hedge is still in flight; let it win
			}
			if !launch(Failover) {
				return val, info, out.err
			}
			info.Failovers++
		case <-hedgeC:
			hedgeC = nil
			if launch(Hedge) {
				info.Hedges++
			}
		case <-deadC:
			info.Outstanding = outstanding
			return val, info, ErrDeadline
		}
	}
}
