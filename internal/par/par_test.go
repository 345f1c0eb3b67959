package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settle waits for the goroutine count to come back to before: a
// worker that has called Done may still be on its way out.
func settle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after the call, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPanicIsThatIndexsError(t *testing.T) {
	for _, limit := range []int{0, 1, 2, 8} {
		for bad := 0; bad < 8; bad++ {
			before, rec := runtime.NumGoroutine(), Recovered()
			err := Each(8, limit, func(i int) error {
				if i == bad {
					panic(fmt.Sprintf("index %d blew up", i))
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != fmt.Sprintf("index %d blew up", bad) {
				t.Fatalf("limit %d, panic at %d: err = %v, want that index's *PanicError", limit, bad, err)
			}
			if err.Error() != fmt.Sprintf("panic: index %d blew up", bad) {
				t.Fatalf("message %q", err.Error())
			}
			if !strings.Contains(string(pe.Stack), "par.TestPanicIsThatIndexsError") {
				t.Fatalf("stack does not show the panicking function:\n%s", pe.Stack)
			}
			if got := Recovered() - rec; got != 1 {
				t.Fatalf("Recovered moved by %d, want 1", got)
			}
			settle(t, before)
		}
	}
}

func TestLowestFailingIndexWins(t *testing.T) {
	for _, limit := range []int{0, 2, 3} {
		fiveFailed := make(chan struct{})
		err := Each(8, limit, func(i int) error {
			switch i {
			case 2: // fails last, after a higher index already has
				<-fiveFailed
				return fmt.Errorf("error %d", i)
			case 5:
				close(fiveFailed)
				return fmt.Errorf("error %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "error 2" {
			t.Fatalf("limit %d: err = %v, want index 2's", limit, err)
		}
	}
}

func TestNeverMoreThanLimitInFlight(t *testing.T) {
	for _, limit := range []int{1, 2, 3, 5} {
		var cur, peak atomic.Int64
		var calls atomic.Int64
		err := Each(64, limit, func(int) error {
			n := cur.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			runtime.Gosched()
			time.Sleep(50 * time.Microsecond)
			cur.Add(-1)
			calls.Add(1)
			return nil
		})
		if err != nil || calls.Load() != 64 {
			t.Fatalf("limit %d: err %v after %d calls, want nil after 64", limit, err, calls.Load())
		}
		if p := peak.Load(); p > int64(limit) {
			t.Fatalf("limit %d: %d calls in flight", limit, p)
		}
	}
}

func TestLimitOneRunsInlineAndStops(t *testing.T) {
	before := runtime.NumGoroutine()
	var ran []int
	boom := errors.New("boom")
	err := Each(10, 1, func(i int) error {
		if g := runtime.NumGoroutine(); g > before {
			t.Errorf("index %d ran beside %d goroutines, want at most the %d before the call", i, g, before)
		}
		ran = append(ran, i) // no lock: inline calls are the caller's
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom || fmt.Sprint(ran) != "[0 1 2]" {
		t.Fatalf("Each = %v after %v, want boom after [0 1 2]", err, ran)
	}
}

func TestZeroAndOne(t *testing.T) {
	for _, limit := range []int{0, 1, 4} {
		if err := Each(0, limit, func(int) error { t.Fatal("f called for n = 0"); return nil }); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		calls := 0
		err := Each(1, limit, func(i int) error {
			if i != 0 || runtime.NumGoroutine() > before {
				t.Errorf("n = 1: f(%d) off the caller's goroutine", i)
			}
			calls++
			return nil
		})
		if err != nil || calls != 1 {
			t.Fatalf("limit %d, n = 1: %d calls, err %v", limit, calls, err)
		}
	}
}

// TestNoGoroutineOutlivesTheCall: every started call has returned by the
// time Each does — its writes are visible without further
// synchronization — and the goroutine count comes back, after errors and
// panics too.
func TestNoGoroutineOutlivesTheCall(t *testing.T) {
	for _, limit := range []int{0, 2, 7} {
		for _, fail := range []string{"none", "error", "panic"} {
			before := runtime.NumGoroutine()
			done := make([]bool, 32)
			started := make([]atomic.Bool, 32)
			err := Each(32, limit, func(i int) error {
				started[i].Store(true)
				time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
				done[i] = true
				switch {
				case i == 9 && fail == "error":
					return errors.New("nine")
				case i == 9 && fail == "panic":
					panic("nine")
				}
				return nil
			})
			if (err == nil) != (fail == "none") {
				t.Fatalf("limit %d, %s: err = %v", limit, fail, err)
			}
			for i := range done {
				if started[i].Load() != done[i] {
					t.Fatalf("limit %d, %s: index %d started but Each returned first", limit, fail, i)
				}
				if i <= 9 && !done[i] {
					t.Fatalf("limit %d, %s: index %d below the failure never ran", limit, fail, i)
				}
			}
			settle(t, before)
		}
	}
}

func TestSafe(t *testing.T) {
	boom := errors.New("boom")
	if err := Safe(func() error { return boom }); err != boom {
		t.Fatalf("Safe = %v, want f's own error", err)
	}
	var mu sync.Mutex
	err := Safe(func() error {
		mu.Lock()
		defer mu.Unlock()
		panic(boom)
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != boom || len(pe.Stack) == 0 {
		t.Fatalf("Safe = %v, want a *PanicError carrying the value and a stack", err)
	}
	mu.Lock() // the deferred unlock ran on the way out

	// A *PanicError re-raised on the caller's goroutine (a vault scan's,
	// by an API with no error to return) comes back as itself, counted once.
	rec := Recovered()
	if again := Safe(func() error { panic(pe) }); again != pe || Recovered() != rec {
		t.Fatalf("re-raised panic = %v (Recovered +%d), want the same *PanicError, not recounted", again, Recovered()-rec)
	}
}

// TestSplitTiles holds the one partition rule to its contract over
// every n in [0, 200] and every part count in [1, 33]: the slices tile
// [0, n) in order, none is empty, there are at most parts of them, all
// but the last hold ⌈n/parts⌉ rows, and the slice Of names holds the
// row. 100 rows in 32 parts are the documented 25 slices of 4.
func TestSplitTiles(t *testing.T) {
	for n := 0; n <= 200; n++ {
		for parts := 1; parts <= 33; parts++ {
			s := NewSplit(n, parts)
			if s.Len() > parts {
				t.Fatalf("n=%d parts=%d: %d slices", n, parts, s.Len())
			}
			if lo, hi := s.Bounds(0, s.Len()); lo != 0 || hi != n {
				t.Fatalf("n=%d parts=%d: the slices cover [%d,%d)", n, parts, lo, hi)
			}
			next := 0
			for v := range s.Len() {
				lo, hi := s.Bounds(v, v+1)
				if lo != next || hi <= lo || s.Size(v) != hi-lo {
					t.Fatalf("n=%d parts=%d: slice %d is [%d,%d) of size %d after row %d", n, parts, v, lo, hi, s.Size(v), next)
				}
				if size := (n + parts - 1) / parts; v < s.Len()-1 && hi-lo != size {
					t.Fatalf("n=%d parts=%d: slice %d holds %d rows, want %d", n, parts, v, hi-lo, size)
				}
				for i := lo; i < hi; i++ {
					if s.Of(i) != v {
						t.Fatalf("n=%d parts=%d: row %d is in slice %d, Of says %d", n, parts, i, v, s.Of(i))
					}
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: the slices end at row %d", n, parts, next)
			}
		}
	}
	if s := NewSplit(100, 32); s.Len() != 25 || s.Size(24) != 4 {
		t.Fatalf("100 rows in 32 parts: %d slices, the last of %d rows; want 25 of 4", s.Len(), s.Size(24))
	}
}
