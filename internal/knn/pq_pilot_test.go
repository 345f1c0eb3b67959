package knn

// The ADC pass's pilot against a database built to defeat it: every
// pilot row is a copy of the query, so the pilot's bound is distance 0
// and exactly the pilot's rows sit at or below it. Any depth past that
// must rescan and still return the brute-force answer.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ssam/internal/obs"
	"ssam/internal/pq"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// pilotAdversary returns n rows of dim random coordinates in [0, 1),
// with the pilot's s rows overwritten by q, which lies far outside them.
func pilotAdversary(n, dim int, q []float32, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	s, _ := pilotShape(n, 1)
	for i := 0; i < s; i++ {
		row := i * n / s
		copy(data[row*dim:(row+1)*dim], q)
	}
	return data
}

// pqOracle is the quantized search done by brute force: pq.ADC over
// every row's codes, a sort under the candidate order, the r best kept
// and, unless rerank is 0, re-scored under the true metric.
func pqOracle(e *PQScan, data, q []float32, k, rerank int) ([]topk.Result, []cand) {
	lut := e.cb.Table(e.tableMetric, q, nil)
	all := make([]cand, 0, e.n)
	code := make([]byte, e.cb.M())
	for v, slab := range e.slabs {
		start, _ := e.split(e.n).Bounds(v, v+1)
		for i := 0; i < slab.N(); i++ {
			row := start + i
			all = append(all, makeCand(pq.ADC(lut, slab.Row(i, code)), uint32(row)))
		}
	}
	slices.Sort(all)
	top := all[:min(max(k, rerank), e.n)]
	if rerank == 0 {
		out := make([]topk.Result, min(k, len(top)))
		for i := range out {
			out[i] = topk.Result{ID: top[i].row(), Dist: float64(top[i].dist())}
		}
		return out, all
	}
	sel := topk.New(k)
	for _, c := range top {
		sel.Push(c.row(), vec.Distance(e.metric, q, data[c.row()*e.dim:(c.row()+1)*e.dim]))
	}
	return sel.Results(), all
}

// TestPQPilotMissRescans: at every vault count, in RAM and over a
// store, at depths below the adversary's s pilot rows at distance 0,
// above them, and at or past n, results equal the brute-force oracle's
// bit for bit; the pass rescans exactly when the depth is past those
// rows, and a rescan is one Rescans and n more CodeEvals, tagged on the
// exec span.
func TestPQPilotMissRescans(t *testing.T) {
	const n, dim, k = 3000, 8, 10
	q := make([]float32, dim)
	for i := range q {
		q[i] = 50
	}
	data := pilotAdversary(n, dim, q, 61)
	s, _ := pilotShape(n, 1)
	p := PQParams{M: 4, Sample: 1024, Seed: 5}
	var premise bool
	for _, vaults := range []int{1, 2, 3, 32} {
		ram, err := NewPQScan(data, dim, vec.Euclidean, p, vaults, nil)
		if err != nil {
			t.Fatal(err)
		}
		ram.SetSerialThreshold(0)
		tiered, err := NewPQScan(data, dim, vec.Euclidean, p, vaults, tieredStore(t, data, dim, vaults, 0.5, true))
		if err != nil {
			t.Fatal(err)
		}
		tiered.SetSerialThreshold(0)
		engines := []struct {
			name string
			e    *PQScan
		}{{"ram", ram}, {"tiered", tiered}}
		for _, rerank := range []int{0, k, 50, 1000, n - 1, n, n + 5} {
			for _, eng := range engines {
				e := eng.e
				tag := fmt.Sprintf("%s/vaults=%d/rerank=%d", eng.name, vaults, rerank)
				e.SetRerank(rerank)
				want, all := pqOracle(e, data, q, k, rerank)
				// The construction's premise: the pilot rows, and only
				// they, sit at ADC distance 0 (ties go to the lower row).
				for i, c := range all[:s] {
					if c.dist() != 0 || c.row() != i*n/s {
						t.Fatalf("%s: candidate %d is (%v, %d), not pilot row %d at 0", tag, i, c.dist(), c.row(), i*n/s)
					}
				}
				if all[s].dist() == 0 {
					t.Fatalf("%s: row %d, not a pilot row, is at 0 too", tag, all[s].row())
				}
				r := min(max(k, rerank), n)
				_, rank := pilotShape(n, r)
				rescan := rank > 0 && r > s
				premise = premise || rescan
				wantRescans, wantEvals := 0, n
				if rescan {
					wantRescans, wantEvals = 1, 2*n
				}

				tracer := obs.NewTracer(0, 4)
				tr := tracer.Trace("search", true)
				got, st, _, err := e.RunBatch([][]float32{q}, k, tr.Root())
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				sameResults(t, tag, got[0], want)
				if st.Rescans != wantRescans {
					t.Fatalf("%s: %d rescans, want %d", tag, st.Rescans, wantRescans)
				}
				if st.CodeEvals != wantEvals {
					t.Fatalf("%s: %d code evals, want %d", tag, st.CodeEvals, wantEvals)
				}
				root := tracer.Finish(tr).Root
				if tagged := root.Tags["adc_rescan"] == true; tagged != rescan {
					t.Fatalf("%s: adc_rescan tag %v, want %v", tag, root.Tags["adc_rescan"], rescan)
				}
			}
		}
	}
	if !premise {
		t.Fatal("no depth made the pilot miss")
	}
}
