// Package par runs the serving path's fan-outs, and turns a panic on
// any of their goroutines into an error (DESIGN.md §18).
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error of a unit of work that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

var recovered atomic.Uint64

// Recovered returns how many panics Each and Safe have turned into errors.
func Recovered() uint64 { return recovered.Load() }

// Safe runs f; a panic in f is its *PanicError.
func Safe(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			pe, ok := v.(*PanicError) // re-raised from a goroutine below: counted there
			if !ok {
				recovered.Add(1)
				pe = &PanicError{Value: v, Stack: debug.Stack()}
			}
			err = pe
		}
	}()
	return f()
}

// Each runs f(0) … f(n-1) on at most limit goroutines (limit <= 0: one
// per index; one index or a limit of one: the caller's), starting them
// in ascending order and none once one has failed. It returns when every
// started call has, with the error of the lowest failing index.
func Each(n, limit int, f func(i int) error) error {
	if limit <= 0 || limit > n {
		limit = n
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			if err := Safe(func() error { return f(i) }); err != nil {
				return err
			}
		}
		return nil
	}
	var st struct { // one allocation for the call, one for work
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex // guards at and err
		at     int
		err    error // of index at, the lowest that has failed
	}
	work := func() {
		for i := int(st.next.Add(1)) - 1; i < n && !st.failed.Load(); i = int(st.next.Add(1)) - 1 {
			if err := Safe(func() error { return f(i) }); err != nil {
				st.mu.Lock()
				if st.err == nil || i < st.at {
					st.at, st.err = i, err
				}
				st.mu.Unlock()
				st.failed.Store(true)
			}
		}
		st.wg.Done()
	}
	st.wg.Add(limit)
	for range limit {
		go work()
	}
	st.wg.Wait()
	return st.err
}

// Split is rows [0, n) cut into contiguous slices of ⌈n/parts⌉ rows,
// the one partition rule of every layer that splits a dataset
// (DESIGN.md §9): the scan's vaults, the quantized code slabs, a
// store's pages, the mutable store's seed, a sharded region's shards
// and the device model's modules. It stops at the first slice that
// would be empty, so 100 rows in 32 parts are 25 slices of 4.
type Split struct{ n, size, len int }

// NewSplit cuts n rows into at most parts slices (parts >= 1).
func NewSplit(n, parts int) Split {
	if n <= 0 {
		return Split{}
	}
	size := (n + parts - 1) / parts
	return Split{n: n, size: size, len: (n + size - 1) / size}
}

// Len returns the slice count. Every slice holds at least one row.
func (s Split) Len() int { return s.len }

// Bounds returns the rows [lo, hi) of slices a through b-1: Bounds(v,
// v+1) is slice v, Bounds(0, Len()) every row.
func (s Split) Bounds(a, b int) (lo, hi int) {
	return min(a*s.size, s.n), min(b*s.size, s.n)
}

// Size returns the row count of slice v.
func (s Split) Size(v int) int {
	lo, hi := s.Bounds(v, v+1)
	return hi - lo
}

// Of returns the slice that holds row i.
func (s Split) Of(i int) int { return i / s.size }
