package mutate

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/par"
	"ssam/internal/tier"
	"ssam/internal/vec"
)

// TestOneSplitEveryLayer builds every layer that splits rows into vaults
// from the same rows and vault count, and holds the partitions each one
// makes to the one rule, par.Split: a tier store's pages; the exact
// scan's vaults, in RAM and over that store; the quantized scan's code
// slabs, as its ADC walk visits them; and a seeded mutable store's
// vaults, the empty ones last, as its search walks them. The walks are
// read from their "vault" spans, which give each partition's index and
// row count.
func TestOneSplitEveryLayer(t *testing.T) {
	const dim = 4
	r := rand.New(rand.NewSource(5))
	qs := randRows(r, 2, dim)
	for _, n := range []int{1, 5, 33, 100, 257} {
		rows := randRows(r, n, dim)
		data := flatten(rows)
		for _, vaults := range []int{1, 2, 3, 7, 32} {
			name := fmt.Sprintf("n=%d/vaults=%d", n, vaults)
			split := par.NewSplit(n, vaults)
			want := make([][2]int, split.Len())
			for v := range want {
				lo, hi := split.Bounds(v, v+1)
				want[v] = [2]int{lo, hi}
			}
			check := func(layer string, got [][2]int) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s partitions %v, want %v", name, layer, got, want)
				}
			}
			// A resident walk over one vault scans as one and opens no span.
			walked := func(layer string, search func(sp *obs.Span)) {
				t.Helper()
				if got := walkBounds(t, search); len(got) > 0 || vaults > 1 {
					check(layer, got)
				}
			}

			store, err := tier.Create(filepath.Join(t.TempDir(), "rows.tier"), data, dim, vaults, tier.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			pages := make([][2]int, store.Vaults())
			for v := range pages {
				lo, hi, err := store.PageRows(v)
				if err != nil {
					t.Fatal(err)
				}
				pages[v] = [2]int{lo, hi}
			}
			check("tier store's pages", pages)
			check("walk over the store's pages", walkBounds(t, func(sp *obs.Span) {
				if _, _, err := knn.NewExactScan(store, vec.Euclidean).Run(qs, 3, sp); err != nil {
					t.Fatal(err)
				}
			}))

			eng := knn.NewEngine(data, dim, vec.Euclidean, vaults)
			eng.SetSerialThreshold(0)
			walked("exact scan's walk", func(sp *obs.Span) { eng.Run(qs, 3, sp) })

			pqs, err := knn.NewPQScan(data, dim, vec.Euclidean, knn.PQParams{M: 2, Sample: 64, Seed: 1}, vaults, nil)
			if err != nil {
				t.Fatal(err)
			}
			pqs.SetSerialThreshold(0)
			walked("quantized slabs", func(sp *obs.Span) {
				if _, _, _, err := pqs.RunBatch(qs[:1], 3, sp); err != nil {
					t.Fatal(err)
				}
			})

			s := NewFloat(dim, vec.Euclidean, Options{Vaults: vaults})
			if err := s.Seed(seqIDs(n), rows); err != nil {
				t.Fatal(err)
			}
			snap := s.snap.Load()
			if len(snap.vaults) != vaults {
				t.Fatalf("%s: seeded store keeps %d vaults, want %d", name, len(snap.vaults), vaults)
			}
			var seeded [][2]int
			lo := 0
			for v, vs := range snap.vaults {
				if size := len(vs.ids); v < split.Len() {
					seeded, lo = append(seeded, [2]int{lo, lo + size}), lo+size
				} else if size != 0 {
					t.Fatalf("%s: seeded vault %d holds %d rows past the split's %d slices", name, v, size, split.Len())
				}
			}
			check("seeded store's vaults", seeded)
			s.SetSerialThreshold(0)
			walked("mutable store's walk", func(sp *obs.Span) { s.SearchBatch(qs, 3, sp) })
		}
	}
}

// walkBounds runs search under a fresh trace and returns the row range
// of each "vault" span it recorded, in order; a span's vault tag must be
// its position.
func walkBounds(t *testing.T, search func(sp *obs.Span)) [][2]int {
	t.Helper()
	tracer := obs.NewTracer(0, 1)
	tr := tracer.Trace("split", true)
	search(tr.Root())
	var got [][2]int
	lo := 0
	for i, sp := range tracer.Finish(tr).Root.FindAll("vault") {
		rows, _ := sp.Tags["rows"].(int)
		if sp.Tags["vault"] != i {
			t.Fatalf("vault span %d is tagged vault %v", i, sp.Tags["vault"])
		}
		got, lo = append(got, [2]int{lo, lo + rows}), lo+rows
	}
	return got
}
