package knn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ssam/internal/obs"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// TestEngineBatchEqualsSearch pins the query-tiled scan against the
// single-query one: for every batch size around the tile width, vault
// count, serial-threshold setting and dataset size around the
// threshold, SearchBatch(qs)[i] is Search(qs[i]) — ids, order and
// distances — and the batch's work counters are exactly the sum of the
// per-query ones. The small sizes, and the vault counts that do not
// divide them, leave every vault's scan one, two or three rows short of
// a block of four; there Search is held to a brute-force scan too, so a
// remainder row dropped or scored twice by both sides still shows.
func TestEngineBatchEqualsSearch(t *testing.T) {
	const dim, k = 5, 10
	rng := rand.New(rand.NewSource(59))
	qs := make([][]float32, 33)
	for i := range qs {
		qs[i] = tieHeavyFloats(rng, 1, dim)
	}
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
		for _, n := range []int{0, 1, 2, 3, 5, 6, 7, k - 1, 2047, 2048, 5000} {
			data := tieHeavyFloats(rng, n, dim)
			for _, vaults := range []int{1, 2, 3, 32} {
				for _, forceVaults := range []bool{true, false} {
					e := NewEngine(data, dim, metric, vaults)
					if forceVaults {
						e.SetSerialThreshold(0)
					}
					want := make([][]topk.Result, len(qs))
					stats := make([]Stats, len(qs))
					for i, q := range qs {
						want[i], stats[i] = e.SearchStats(q, k)
						if n < k {
							if brute := bruteForce(data, dim, q, k, metric); !reflect.DeepEqual(want[i], brute) {
								t.Fatalf("%v n=%d vaults=%d force=%v: Search = %v, brute force %v", metric, n, vaults, forceVaults, want[i], brute)
							}
						}
					}
					for _, b := range []int{1, 2, 3, 4, 5, 15, 16, 17, 33} {
						label := fmt.Sprintf("%v n=%d vaults=%d force=%v B=%d", metric, n, vaults, forceVaults, b)
						got, st, _ := e.Run(qs[:b], k, nil)
						if !reflect.DeepEqual(got, want[:b]) {
							t.Fatalf("%s: batch diverged from Search:\ngot  %v\nwant %v", label, got, want[:b])
						}
						var sum Stats
						for _, s := range stats[:b] {
							sum.Add(s)
						}
						if st.DistEvals != sum.DistEvals || st.Dims != sum.Dims || st.PQInserts != sum.PQInserts {
							t.Fatalf("%s: batch stats %+v, summed per-query %+v", label, st, sum)
						}
						if st.DistEvals != b*n || st.Dims != b*n*dim {
							t.Fatalf("%s: batch stats %+v, want %d evals", label, st, b*n)
						}
					}
				}
			}
		}
	}
	if out, st, err := NewEngine(nil, dim, vec.Euclidean, 1).Run(nil, k, nil); err != nil || len(out) != 0 || st != (Stats{}) {
		t.Fatalf("empty batch = %v, %+v", out, st)
	}
}

// TestEngineBatchVaultSpans checks the tiled path's trace shape: one
// "vault" span per slice per batch — not per query — tagged with the
// slice and the queries it served.
func TestEngineBatchVaultSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n, dim, vaults, b = 40, 4, 4, 6
	e := NewEngine(tieHeavyFloats(rng, n, dim), dim, vec.Euclidean, vaults)
	e.SetSerialThreshold(0)
	qs := make([][]float32, b)
	for i := range qs {
		qs[i] = tieHeavyFloats(rng, 1, dim)
	}
	tracer := obs.NewTracer(0, 4)
	tr := tracer.Trace("batch", true)
	e.Run(qs, 5, tr.Root())
	spans := tracer.Finish(tr).Root.FindAll("vault")
	rows := 0
	for _, sp := range spans {
		r, _ := sp.Tags["rows"].(int)
		rows += r
		if sp.Tags["vault"] == nil || sp.Tags["queries"] != b {
			t.Fatalf("vault span tags %v, want vault, rows, queries=%d", sp.Tags, b)
		}
	}
	if len(spans) != vaults || rows != n {
		t.Fatalf("%d vault spans covering %d rows, want %d covering %d", len(spans), rows, vaults, n)
	}
}

// The layer microbenchmarks (ROADMAP item 1) on the spine's shape,
// bytes counted as slab bytes per call: a batch of 16 that reads the
// slab once shows as sixteen times the distances at well under sixteen
// times BenchmarkEngineSearch's time.
func benchEngine() (*Engine, [][]float32) {
	const n, dim = 50000, 128
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	qs := make([][]float32, 16)
	for j := range qs {
		qs[j] = make([]float32, dim)
		for i := range qs[j] {
			qs[j][i] = rng.Float32()
		}
	}
	return NewEngine(data, dim, vec.Euclidean, 0), qs
}

func BenchmarkEngineSearch(b *testing.B) {
	e, qs := benchEngine()
	b.SetBytes(int64(e.N() * e.Dim() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(qs[i%len(qs)], 10)
	}
}

func BenchmarkEngineSearchBatch16(b *testing.B) {
	e, qs := benchEngine()
	b.SetBytes(int64(e.N() * e.Dim() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SearchBatch(qs, 10)
	}
}
