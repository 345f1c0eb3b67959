package main

import (
	"runtime"
	"time"
)

// Two fixed probes of the machine itself ride in every envelope, so a
// slow set of results can be told from a slow machine: a memory-bound
// one (stream) and a compute-bound one (calib).

// bestOf runs fn reps times and returns the shortest wall time: the
// run least disturbed by anything else on the box.
func bestOf(reps int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}

// streamGBs sums the slab with four independent accumulators and
// reports the rate the bytes went by at: the ceiling a scan kernel
// over the same slab is held against.
func streamGBs(slab []float32) float64 {
	d := bestOf(5, func() {
		var a, b, c, e float32
		i := 0
		for ; i+4 <= len(slab); i += 4 {
			a += slab[i]
			b += slab[i+1]
			c += slab[i+2]
			e += slab[i+3]
		}
		runtime.KeepAlive(a + b + c + e) // the sums must be computed
	})
	return float64(len(slab)) * 4 / d.Seconds() / 1e9
}

// calibMs times a fixed dependent chain of integer multiply-adds that
// touches no memory.
func calibMs() float64 {
	d := bestOf(3, func() {
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		runtime.KeepAlive(x)
	})
	return float64(d) / float64(time.Millisecond)
}
