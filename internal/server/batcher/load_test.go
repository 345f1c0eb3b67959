package batcher

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssam"
	"ssam/internal/obs"
)

// TestSoak (run it under -race) hammers one batcher from 32 goroutines
// with mixed k and callers that give up at random moments, against an
// engine of jittered latency. Every caller that did not give up must
// get its own query's answer, at most P engine calls may overlap, and
// at the end nothing is pending, Close returns and no runner is left.
func TestSoak(t *testing.T) {
	const (
		callers = 32
		rounds  = 60
	)
	goroutines := runtime.NumGoroutine()

	e := &engine{}
	var jitter atomic.Int64
	b := New(func(qs [][]float32, k int, sp *obs.Span) ([][]ssam.Result, error) {
		time.Sleep(time.Duration(jitter.Add(37)%200) * time.Microsecond)
		return e.search(qs, k, sp)
	}, Options{MaxBatch: 5})

	var answered, gaveUp atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < rounds; r++ {
				id, k := c*rounds+r, 1+rng.Intn(3)
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if rng.Intn(3) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				res, err := b.Search(ctx, query(id), k)
				switch {
				case err == nil && len(res) == 1 && res[0].ID == id && res[0].Dist == float64(k):
					answered.Add(1)
				case err != nil && errors.Is(err, ctx.Err()):
					gaveUp.Add(1)
				default:
					t.Errorf("query %d at k=%d: answered %v, %v", id, k, res, err)
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	b.Close()

	if n := b.Pending(); n != 0 {
		t.Errorf("pending = %d after the soak, want 0", n)
	}
	if answered.Load() == 0 || gaveUp.Load() == 0 || answered.Load()+gaveUp.Load() != callers*rounds {
		t.Errorf("answered %d + gave up %d of %d: want both kinds and every call accounted for",
			answered.Load(), gaveUp.Load(), callers*rounds)
	}
	if e.maxInFly > b.slots {
		t.Errorf("%d SearchFunc calls in flight at once, want <= P = %d", e.maxInFly, b.slots)
	}
	seen := map[int]bool{}
	batches, _ := e.log(0)
	for _, ids := range batches {
		if len(ids) > 5 {
			t.Errorf("batch of %d past MaxBatch = 5", len(ids))
		}
		for _, id := range ids {
			if seen[id] {
				t.Errorf("query %d executed twice", id)
			}
			seen[id] = true
		}
	}
	if int64(len(seen)) < answered.Load() {
		t.Errorf("%d queries executed, %d answered", len(seen), answered.Load())
	}
	waitFor(t, "the runners to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// noop answers a batch without looking at it; the slices it hands out
// are shared, which is fine for callers that drop them.
func noop() SearchFunc {
	out := make([][]ssam.Result, defaultMaxBatch)
	return func(qs [][]float32, _ int, _ *obs.Span) ([][]ssam.Result, error) { return out[:len(qs)], nil }
}

// TestSearchSoloAllocs pins what the idle path may allocate per query:
// the reply channel, the batch, its query list and the runner.
func TestSearchSoloAllocs(t *testing.T) {
	b := New(noop(), Options{})
	defer b.Close()
	ctx, q := context.Background(), query(1)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := b.Search(ctx, q, 10); err != nil {
			t.Fatal(err)
		}
	}); got > 4 {
		t.Fatalf("a solo Search allocates %.0f times, want <= 4", got)
	}
}

// BenchmarkSearchSolo is the batcher's own cost on the idle path: one
// caller, an engine that does nothing.
func BenchmarkSearchSolo(b *testing.B) {
	bat := New(noop(), Options{})
	defer bat.Close()
	ctx, q := context.Background(), query(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.Search(ctx, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchContended is the loaded path: 8 closed-loop callers
// on an engine that takes 200 µs whatever the batch size, so whoever
// finds the slots busy queues and leaves with the rest. It reports the
// mean batch size that load produced (>= 2 expected at P = 2).
func BenchmarkSearchContended(b *testing.B) {
	const callers = 8
	var batches atomic.Int64
	search := noop()
	bat := New(func(qs [][]float32, k int, sp *obs.Span) ([][]ssam.Result, error) {
		batches.Add(1)
		time.Sleep(200 * time.Microsecond)
		return search(qs, k, sp)
	}, Options{})
	defer bat.Close()
	ctx, q := context.Background(), query(1)
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := bat.Search(ctx, q, 10); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/float64(batches.Load()), "queries/batch")
}
