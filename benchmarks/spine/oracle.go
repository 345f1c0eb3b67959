package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ssam/internal/server/wire"
)

// The oracle is the benchmark's own: a float64 brute-force scan that
// shares no code with the engines it judges. It is always computed
// outside every timed region.

// oracleTopK returns, for each query, the ids of its k nearest rows
// under squared Euclidean distance, ties broken by ascending id. rows
// and ids run in parallel.
func oracleTopK(ids []int, rows [][]float32, queries [][]float32, k int) [][]int {
	out := make([][]int, len(queries))
	workers := min(2, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := w; qi < len(queries); qi += workers {
				out[qi] = bruteForce(ids, rows, queries[qi], k)
			}
		}(w)
	}
	wg.Wait()
	return out
}

type candidate struct {
	id   int
	dist float64
}

func (c candidate) before(o candidate) bool {
	return c.dist < o.dist || (c.dist == o.dist && c.id < o.id)
}

func bruteForce(ids []int, rows [][]float32, q []float32, k int) []int {
	best := make([]candidate, 0, k+1) // ascending under before
	for r, row := range rows {
		var acc float64
		for d, x := range row {
			diff := float64(q[d]) - float64(x)
			acc += diff * diff
		}
		c := candidate{id: ids[r], dist: acc}
		if len(best) == k && !c.before(best[k-1]) {
			continue
		}
		pos := len(best)
		for pos > 0 && c.before(best[pos-1]) {
			pos--
		}
		best = append(best, candidate{})
		copy(best[pos+1:], best[pos:])
		best[pos] = c
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.id
	}
	return out
}

// recall is the share of want's ids present in got: the paper's
// |S_E ∩ S_A| / |S_E|.
func recall(want []int, got []wire.Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for _, id := range want {
		for _, g := range got {
			if g.ID == id {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(want))
}

// checkAnswer is the structural test every answer of the load phase
// must pass: exactly k rows, finite non-negative distances, strictly
// ascending under (distance, id), no id twice, every id inside
// [0, idLimit).
func checkAnswer(res []wire.Neighbor, k, idLimit int) error {
	if len(res) != k {
		return fmt.Errorf("%d rows, want %d", len(res), k)
	}
	for i, r := range res {
		if r.ID < 0 || r.ID >= idLimit {
			return fmt.Errorf("row %d: id %d outside [0, %d)", i, r.ID, idLimit)
		}
		if math.IsNaN(r.Distance) || math.IsInf(r.Distance, 0) || r.Distance < 0 {
			return fmt.Errorf("row %d: distance %v", i, r.Distance)
		}
		if i > 0 {
			p := res[i-1]
			if p.Distance > r.Distance || (p.Distance == r.Distance && p.ID >= r.ID) {
				return fmt.Errorf("rows %d,%d out of (distance, id) order", i-1, i)
			}
		}
		for _, e := range res[:i] {
			if e.ID == r.ID {
				return fmt.Errorf("id %d twice", r.ID)
			}
		}
	}
	return nil
}
