package ssam

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestAdoptedSlabIsNeverWritten pins AdoptFloat32's contract from the
// region's side: no engine writes the rows it adopted — not the build,
// not a search, not the mutable store a first write seeds and compacts,
// not a rebuild, not Free — and the region holds exactly the rows it was
// given, so a caller appending into the slab's spare capacity changes no
// answer.
func TestAdoptedSlabIsNeverWritten(t *testing.T) {
	const n, dim, k = 300, 8, 5
	for mode := Linear; mode <= Quantized; mode++ {
		for _, mutated := range []bool{false, true} {
			if mutated && mode != Linear {
				continue
			}
			name := mode.String()
			if mutated {
				name += "/mutated"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(mode) + 1))
				slab := make([]float32, n*dim, (n+4)*dim) // room past len for the caller's append
				for i := range slab {
					slab[i] = float32(rng.NormFloat64())
				}
				kept := slices.Clone(slab)
				qs := make([][]float32, 4)
				for i := range qs {
					qs[i] = kept[(i*71)*dim : (i*71+1)*dim]
				}
				r, err := New(dim, Config{Mode: mode, Vaults: 3,
					Index: IndexParams{Seed: 3, M: 4, Sample: 128, Rerank: 16, Tables: 4, Bits: 3}})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.AdoptFloat32(slab); err != nil {
					t.Fatal(err)
				}
				if err := r.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				answers := func(when string) [][]Result {
					t.Helper()
					out, err := r.SearchBatch(qs, k)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					return out
				}
				built := answers("after the build")

				// The caller's append lands in the spare capacity, past the rows
				// the region holds.
				grown := append(slab, make([]float32, 4*dim)...)
				for i := n * dim; i < len(grown); i++ {
					grown[i] = -1e6
				}
				if &grown[0] != &slab[0] {
					t.Fatal("the append reallocated; the test needs it in place")
				}
				if got := answers("after the caller's append"); !reflect.DeepEqual(got, built) || r.Len() != n {
					t.Fatalf("the caller's append changed the region: Len %d, answers\n%v\nwant\n%v", r.Len(), got, built)
				}

				if mutated {
					for i := 0; i < n/2; i++ {
						if _, _, err := r.Delete(i); err != nil {
							t.Fatal(err)
						}
					}
					for _, id := range []int{n / 2, n + 1} {
						if _, err := r.Upsert(id, qs[0]); err != nil {
							t.Fatal(err)
						}
					}
					for pass := 0; pass < 2; pass++ {
						if _, err := r.CompactNow(); err != nil {
							t.Fatal(err)
						}
					}
				}
				rebuilt := answers("before the rebuild")
				if err := r.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				if got := answers("after the rebuild"); !reflect.DeepEqual(got, rebuilt) {
					t.Fatalf("the rebuild changed the answers:\n%v\nwant\n%v", got, rebuilt)
				}
				r.Free()
				for i := range slab {
					if math.Float32bits(slab[i]) != math.Float32bits(kept[i]) {
						t.Fatalf("adopted slab written at element %d (row %d): %v, was %v", i, i/dim, slab[i], kept[i])
					}
				}
			})
		}
	}
}
