package ssam

// The scan kernel's cross-path contract: one fixed seeded dataset
// scanned serially, vault-parallel, as a tiled batch, through the
// mutable store and out of core returns, on every path, exactly the
// (id, distance) pairs of the two-slice vec.Distance over every row
// followed by a sort — float64 equality, no tolerance. vec.Distance is
// the parent commit's per-row arithmetic, so this is also "distances
// are bit-identical across the kernel change".

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"ssam/internal/topk"
	"ssam/internal/vec"
)

func TestScanPathsBitIdentical(t *testing.T) {
	// n is above the serial threshold, so Vaults: 3 really fans out.
	const n, dim, k, nq = 3000, 24, 10, 19
	rng := rand.New(rand.NewSource(20180521))
	data := make([]float32, (n+1)*dim)
	for i := range data {
		// A coarse grid: duplicate distances across vault edges are common.
		data[i] = float32(rng.Intn(7)) / 2
	}
	extra := data[n*dim:] // the row the mutable arm upserts and deletes again
	data = data[:n*dim]
	qs := make([][]float32, nq)
	for i := range qs {
		qs[i] = make([]float32, dim)
		for j := range qs[i] {
			qs[i][j] = float32(rng.NormFloat64())
		}
	}

	for _, metric := range []Metric{Euclidean, Manhattan, Cosine} {
		want := make([][]Result, nq)
		for i, q := range qs {
			all := make([]Result, n)
			for id := range all {
				all[id] = Result{ID: id, Dist: vec.Distance(metric.toVec(), q, data[id*dim:(id+1)*dim])}
			}
			topk.SortResults(all)
			want[i] = all[:k]
		}
		check := func(path string, i int, got []Result) {
			t.Helper()
			if len(got) != k {
				t.Fatalf("%v %s query %d: %d results, want %d", metric, path, i, len(got), k)
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("%v %s query %d rank %d: got %+v, want %+v", metric, path, i, j, got[j], want[i][j])
				}
			}
		}
		paths := []struct {
			name   string
			cfg    Config
			mutate bool
		}{
			{"serial", Config{Vaults: 1}, false},
			{"vaults", Config{Vaults: 3}, false},
			{"mutable", Config{Vaults: 3}, true},
			{"tiered", Config{Vaults: 3, Storage: &Storage{Path: filepath.Join(t.TempDir(), fmt.Sprint(metric, ".tier"))}}, false},
		}
		for _, p := range paths {
			p.cfg.Metric = metric
			r, err := New(dim, p.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.LoadFloat32(data); err != nil {
				t.Fatal(err)
			}
			if err := r.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if p.mutate {
				// Same logical content, now behind the RCU store with a
				// tombstone in it.
				if _, err := r.Upsert(n, extra); err != nil {
					t.Fatal(err)
				}
				if _, ok, err := r.Delete(n); err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v", n, ok, err)
				}
			}
			for i, q := range qs {
				got, err := r.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				check(p.name, i, got)
			}
			// 19 queries: four full register tiles, one of two, one of one.
			batch, err := r.SearchBatch(qs, k)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range batch {
				check(p.name+" batch", i, got)
			}
			r.Free()
		}
	}
}
