package tier

// Fault injection for the storage tier: the contract under test is
// that a degraded or failing backing store surfaces as a typed error —
// never as wrong data — and that eviction under concurrent traffic
// never lets a reader keep an evicted page (proved with a poisoned-page
// double: evicted slices are overwritten with NaN, so any
// use-after-evict would corrupt a visible row).

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReadHookErrorIsTyped(t *testing.T) {
	s := mustCreate(t, testData(40, 4, 20), 4, 4, Options{})
	boom := errors.New("injected io failure")
	s.SetReadHook(func(vault int) error {
		if vault == 2 {
			return boom
		}
		return nil
	})
	if pg, err := s.Acquire(1); err != nil {
		t.Fatalf("healthy vault: %v", err)
	} else {
		pg.Release()
	}
	_, err := s.Acquire(2)
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("Acquire(2) = %v, want *ReadError", err)
	}
	if re.Vault != 2 || !errors.Is(err, boom) {
		t.Fatalf("ReadError = %+v, want vault 2 wrapping the injected error", re)
	}
	// A failed load must not leave a stuck loading entry: clearing the
	// fault makes the same vault readable again.
	s.SetReadHook(nil)
	pg, err := s.Acquire(2)
	if err != nil {
		t.Fatalf("Acquire(2) after clearing the fault: %v", err)
	}
	pg.Release()
}

func TestConcurrentAcquireOfFailingVault(t *testing.T) {
	s := mustCreate(t, testData(40, 4, 21), 4, 2, Options{})
	s.SetReadHook(func(int) error { return errors.New("dead device") })
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = s.Acquire(0)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		var re *ReadError
		if !errors.As(err, &re) {
			t.Fatalf("goroutine %d: err = %v, want *ReadError", g, err)
		}
	}
}

// TestPanicInPrefetchIsAFailedRead: a prefetch whose read panics counts
// as a failed load — the slot is cleared and the demand Acquire waiting
// behind it retries, and gets the page.
func TestPanicInPrefetchIsAFailedRead(t *testing.T) {
	s := mustCreate(t, testData(40, 4, 24), 4, 4, Options{Prefetch: true})
	release := make(chan struct{})
	var reads atomic.Int32
	s.SetReadHook(func(vault int) error {
		if vault == 1 && reads.Add(1) == 1 {
			<-release
			panic("prefetch blew up")
		}
		return nil
	})
	s.Prefetch(1)
	got := make(chan error, 1)
	go func() {
		pg, err := s.Acquire(1)
		if err == nil {
			pg.Release()
		}
		got <- err
	}()
	for s.Counters().Stalls == 0 { // the Acquire is waiting on the prefetch
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Acquire(1) behind a panicking prefetch = %v, want the page", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire(1) still waiting on the prefetch that panicked")
	}
}

func TestErrorStrings(t *testing.T) {
	re := &ReadError{Vault: 7, Err: errors.New("eio")}
	if re.Error() == "" || re.Unwrap() == nil {
		t.Fatal("ReadError must format and unwrap")
	}
}

// TestEvictionSoakNoUseAfterEvict hammers a store whose budget holds
// only one of four pages from many goroutines while the eviction hook
// poisons every dropped page with NaN. Every row read through a pinned
// page must still match the source data: a scan holding a page across
// its own eviction would observe the poison.
func TestEvictionSoakNoUseAfterEvict(t *testing.T) {
	const n, dim, vaults = 64, 4, 4
	data := testData(n, dim, 23)
	s := mustCreate(t, data, dim, vaults, Options{BudgetBytes: n / vaults * dim * 4})
	nan := float32(math.NaN())
	s.SetEvictHook(func(vault int, page []float32) {
		for i := range page {
			page[i] = nan
		}
	})
	const goroutines, iters = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				v := (g + it) % vaults
				pg, err := s.Acquire(v)
				if err != nil {
					errs <- err
					return
				}
				lo, hi := pg.Rows()
				for i := lo; i < hi; i++ {
					row := pg.Row(i)
					for j, got := range row {
						if want := data[i*dim+j]; got != want {
							errs <- fmt.Errorf("vault %d row %d dim %d = %v, want %v (use-after-evict?)",
								v, i, j, got, want)
							pg.Release()
							return
						}
					}
				}
				pg.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c := s.Counters(); c.Evictions == 0 {
		t.Fatal("soak produced no evictions; the budget is not forcing turnover")
	}
}
