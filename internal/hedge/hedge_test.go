package hedge

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ssam/internal/obs"
)

// Fake durations: the timer seam hands out one hand-fired channel per
// duration, so a case fires "the hedge timer" or "the deadline" by name.
const (
	hedgeAfter = 1 * time.Nanosecond
	deadline   = 2 * time.Nanosecond
)

// harness scripts one race: Begin walks order (then says -1), each
// target's Run waits on its gate (if it has one) and then answers with
// its error or its name, and every step is observable through a channel
// so the driver sequences the race without sleeping.
type harness struct {
	t      *testing.T
	racer  Racer
	cell   Cell[string]
	fire   map[time.Duration]chan time.Time
	order  []int
	gate   map[int]chan struct{}
	fail   map[int]error
	begins chan string // one kind per Begin call, launched or not
	start  map[int]chan struct{}
	ended  map[int]chan struct{}

	mu      sync.Mutex
	stopped int
	kinds   []string
}

func newHarness(t *testing.T, order []int, gated []int, fail map[int]error) *harness {
	h := &harness{
		t: t, order: order, fail: fail,
		fire:   map[time.Duration]chan time.Time{hedgeAfter: make(chan time.Time, 1), deadline: make(chan time.Time, 1)},
		gate:   map[int]chan struct{}{},
		begins: make(chan string, 16),
		start:  map[int]chan struct{}{},
		ended:  map[int]chan struct{}{},
	}
	for _, g := range gated {
		h.gate[g] = make(chan struct{})
	}
	for _, tg := range order {
		h.start[tg] = make(chan struct{})
		h.ended[tg] = make(chan struct{})
	}
	h.racer.Timer = func(d time.Duration) (<-chan time.Time, func() bool) {
		return h.fire[d], func() bool {
			h.mu.Lock()
			h.stopped++
			h.mu.Unlock()
			return true
		}
	}
	v := "gen1"
	h.cell.Swap(&v)
	return h
}

func (h *harness) plan(hedge, dead bool) Plan[string] {
	p := Plan[string]{
		Begin: func(seq int, kind string) (int, *obs.Span, func(error)) {
			defer func() { h.begins <- kind }()
			if seq >= len(h.order) {
				return -1, nil, nil
			}
			tg := h.order[seq]
			h.mu.Lock()
			h.kinds = append(h.kinds, kind)
			h.mu.Unlock()
			return tg, nil, func(error) { close(h.ended[tg]) }
		},
		Run: func(tg, _ int, _ *obs.Span) (string, error) {
			close(h.start[tg])
			if g := h.gate[tg]; g != nil {
				<-g
			}
			return fmt.Sprintf("t%d", tg), h.fail[tg]
		},
	}
	if hedge {
		p.HedgeAfter = hedgeAfter
	}
	if dead {
		p.Deadline = deadline
	}
	return p
}

// awaitBegin blocks until Begin has been asked for an attempt of kind.
func (h *harness) awaitBegin(kind string) {
	h.t.Helper()
	for {
		select {
		case k := <-h.begins:
			if k == kind {
				return
			}
		case <-time.After(5 * time.Second):
			h.t.Fatalf("Begin(%q) never called", kind)
		}
	}
}

func await(t *testing.T, what string, c <-chan struct{}) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

var (
	errA = errors.New("a failed")
	errB = errors.New("b failed")
	errC = errors.New("c failed")
)

// TestRaceMatrix drives every arm of the race on the fake clock.
func TestRaceMatrix(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cases := []struct {
		name        string
		order       []int
		gated       []int
		fail        map[int]error
		hedge, dead bool
		// drive runs beside Race and returns once the race can finish;
		// after Race returns every remaining gate is opened.
		drive     func(h *harness)
		wantVal   string
		wantErr   error
		wantInfo  Info
		wantKinds []string
		// stragglers are the attempts still running when Race returns.
		stragglers int
	}{
		{
			name: "primary wins", order: []int{0, 1}, hedge: true, dead: true,
			wantVal: "t0", wantInfo: Info{Target: 0}, wantKinds: []string{Primary},
		},
		{
			name: "hedge wins while the primary hangs", order: []int{0, 1}, gated: []int{0}, hedge: true,
			drive:   func(h *harness) { h.fire[hedgeAfter] <- time.Time{} },
			wantVal: "t1", wantInfo: Info{Target: 1, Hedges: 1}, wantKinds: []string{Primary, Hedge},
			stragglers: 1,
		},
		{
			name: "primary errors under an outstanding hedge, hedge wins", order: []int{0, 1, 2}, gated: []int{0, 1},
			fail: map[int]error{0: errA}, hedge: true,
			drive: func(h *harness) {
				h.fire[hedgeAfter] <- time.Time{}
				await(h.t, "hedge start", h.start[1])
				close(h.gate[0]) // the primary fails with the hedge in flight...
				await(h.t, "primary end", h.ended[0])
				close(h.gate[1]) // ...and must not burn a failover before the hedge answers
			},
			wantVal: "t1", wantInfo: Info{Target: 1, Hedges: 1}, wantKinds: []string{Primary, Hedge},
		},
		{
			name: "every target fails, last error surfaces", order: []int{0, 1, 2},
			fail:    map[int]error{0: errA, 1: errB, 2: errC},
			wantErr: errC, wantInfo: Info{Failovers: 2}, wantKinds: []string{Primary, Failover, Failover},
		},
		{
			name: "deadline with two outstanding", order: []int{0, 1}, gated: []int{0, 1}, hedge: true, dead: true,
			drive: func(h *harness) {
				h.fire[hedgeAfter] <- time.Time{}
				await(h.t, "hedge start", h.start[1])
				h.fire[deadline] <- time.Time{}
			},
			wantErr: ErrDeadline, wantInfo: Info{Hedges: 1, Outstanding: 2}, wantKinds: []string{Primary, Hedge},
			stragglers: 2,
		},
		{
			name: "hedge timer fires with no target left", order: []int{0}, gated: []int{0}, hedge: true,
			drive: func(h *harness) {
				h.fire[hedgeAfter] <- time.Time{}
				h.awaitBegin(Hedge) // asked, answered -1: nothing launched
				close(h.gate[0])
			},
			wantVal: "t0", wantInfo: Info{Target: 0}, wantKinds: []string{Primary},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.order, tc.gated, tc.fail)
			gen := h.cell.Acquire()
			if tc.drive != nil {
				go tc.drive(h)
			}
			val, info, err := Race(&h.racer, gen, h.plan(tc.hedge, tc.dead))
			if val != tc.wantVal || err != tc.wantErr || info != tc.wantInfo {
				t.Fatalf("Race = (%q, %+v, %v), want (%q, %+v, %v)", val, info, err, tc.wantVal, tc.wantInfo, tc.wantErr)
			}
			h.mu.Lock()
			kinds, stopped := fmt.Sprint(h.kinds), h.stopped
			h.mu.Unlock()
			if want := fmt.Sprint(tc.wantKinds); kinds != want {
				t.Fatalf("launched %v, want %v", kinds, want)
			}
			armed := 0
			for _, on := range []bool{tc.hedge, tc.dead} {
				if on {
					armed++
				}
			}
			if stopped != armed {
				t.Fatalf("%d timers stopped, %d armed", stopped, armed)
			}

			// Every straggler still holds its lease: the publisher's, the
			// caller's, and one each. The old generation cannot drain.
			// (A finished attempt drops its lease just after it reports, so
			// the count settles a moment after Race returns.)
			want := int64(2 + tc.stragglers)
			for limit := time.Now().Add(5 * time.Second); gen.refs.Load() != want; {
				if time.Now().After(limit) {
					t.Fatalf("refs = %d after the race, want %d (%d stragglers)", gen.refs.Load(), want, tc.stragglers)
				}
				runtime.Gosched()
			}
			old := h.cell.Swap(nil)
			gen.Release()
			drained := make(chan struct{})
			go func() { old.Drain(); close(drained) }()
			if tc.stragglers > 0 {
				select {
				case <-drained:
					t.Fatal("generation drained under running stragglers")
				case <-time.After(10 * time.Millisecond):
				}
			}
			for _, g := range h.gate {
				select {
				case <-g:
				default:
					close(g)
				}
			}
			await(t, "drain", drained)
		})
	}
	// Nothing the races launched may outlive them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the matrix", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaseOutlivesSwap is the lifetime contract: a lease taken before
// a swap keeps the old value readable until released, new leases see
// the new value at once, and Drain returns only after the release.
func TestLeaseOutlivesSwap(t *testing.T) {
	var cell Cell[[]int]
	if cell.Acquire() != nil {
		t.Fatal("empty cell leased something")
	}
	v1, v2 := []int{1}, []int{2}
	if old := cell.Swap(&v1); old != nil {
		t.Fatal("first Swap replaced something")
	}
	lease := cell.Acquire()
	old := cell.Swap(&v2)
	if old != lease {
		t.Fatal("Swap did not return the generation it replaced")
	}
	if cur := cell.Acquire(); cur.Val[0] != 2 {
		t.Fatalf("lease after the swap reads %v, want the new value", cur.Val)
	} else {
		cur.Release()
	}
	drained := make(chan struct{})
	go func() {
		old.Drain()
		v1[0] = -1 // "free": only legal once no lease can read it
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned under a held lease")
	case <-time.After(20 * time.Millisecond):
	}
	if lease.Val[0] != 1 {
		t.Fatalf("old value read %v under a held lease", lease.Val)
	}
	lease.Release()
	await(t, "drain", drained)

	cell.Swap(nil).Drain()
	if cell.Acquire() != nil {
		t.Fatal("emptied cell leased something")
	}
}

// TestPanicIsTheAttemptsError: a panic in Run or in the fault hook is
// that attempt's failure — typed, tagged on the span, and failed over.
func TestPanicIsTheAttemptsError(t *testing.T) {
	tr := obs.NewTracer(1, 4)
	trace := tr.Trace("t", true)
	h := newHarness(t, []int{0, 1}, nil, nil)
	gen := h.cell.Acquire()
	defer gen.Release()
	p := h.plan(false, false)
	begin := p.Begin
	p.Begin = func(seq int, kind string) (int, *obs.Span, func(error)) {
		tg, _, done := begin(seq, kind)
		if tg < 0 {
			return tg, nil, nil
		}
		asp := trace.Root().Start("attempt")
		return tg, asp, func(err error) { done(err); asp.End() }
	}
	run := p.Run
	p.Run = func(tg, seq int, asp *obs.Span) (string, error) {
		if tg == 0 {
			panic("boom")
		}
		return run(tg, seq, asp)
	}
	val, info, err := Race(&h.racer, gen, p)
	if val != "t1" || err != nil || info != (Info{Target: 1, Failovers: 1}) {
		t.Fatalf("Race = (%q, %+v, %v), want a failover to t1", val, info, err)
	}
	td := tr.Finish(trace)
	if js, _ := json.Marshal(td); !strings.Contains(string(js), `"panic":true`) || !strings.Contains(string(js), "boom") {
		t.Fatalf("attempt span carries no panic tag: %s", js)
	}

	// With no one left the panic is what the race returns.
	h = newHarness(t, []int{0}, nil, nil)
	h.racer.SetFaultHook(func(int, int) error { panic(errA) })
	gen2 := h.cell.Acquire()
	defer gen2.Release()
	_, _, err = Race(&h.racer, gen2, h.plan(false, false))
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != errA || !strings.Contains(string(pe.Stack), "hedge") {
		t.Fatalf("err = %v, want a *PanicError carrying the value and a stack", err)
	}
	if !strings.Contains(pe.Error(), "a failed") {
		t.Fatalf("PanicError message %q does not name the value", pe.Error())
	}
}

// TestFaultHookAndRealTimers covers the two defaults: the hook fails
// exactly the attempts it names (and nil removes it), and with no seam
// installed the hedge and deadline run on real timers.
func TestFaultHookAndRealTimers(t *testing.T) {
	h := newHarness(t, []int{0, 1}, nil, nil)
	gen := h.cell.Acquire()
	defer gen.Release()
	h.racer.SetFaultHook(func(tg, seq int) error {
		if tg == 0 && seq == 0 {
			return errA
		}
		return nil
	})
	if val, info, err := Race(&h.racer, gen, h.plan(false, false)); val != "t1" || err != nil || info.Failovers != 1 {
		t.Fatalf("Race = (%q, %+v, %v), want the hook to fail t0 over to t1", val, info, err)
	}
	h = newHarness(t, []int{0}, nil, nil)
	h.racer.SetFaultHook(func(int, int) error { return errA })
	h.racer.SetFaultHook(nil)
	gen = h.cell.Acquire()
	defer gen.Release()
	if val, _, err := Race(&h.racer, gen, h.plan(false, false)); val != "t0" || err != nil {
		t.Fatalf("Race = (%q, %v) after removing the hook", val, err)
	}

	h = newHarness(t, []int{0, 1}, []int{0}, nil)
	h.racer.Timer = nil
	gen = h.cell.Acquire()
	defer gen.Release()
	p := h.plan(false, false)
	p.HedgeAfter, p.Deadline = time.Millisecond, time.Minute
	if val, info, err := Race(&h.racer, gen, p); val != "t1" || err != nil || info.Hedges != 1 {
		t.Fatalf("Race = (%q, %+v, %v), want a real-timer hedge win", val, info, err)
	}
	close(h.gate[0])
	await(t, "straggler", h.ended[0])

	if _, _, err := Race(&h.racer, gen, newHarness(t, nil, nil, nil).plan(false, false)); err == nil {
		t.Fatal("a race with no primary target succeeded")
	}
}
