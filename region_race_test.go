package ssam

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ssam/internal/dataset"
)

// raceDataset is a small clustered dataset shared by the concurrency
// tests (cheap enough to build all five host indexes under -race).
func raceDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "race", N: 400, Dim: 24, NumQueries: 32, K: 5,
		Clusters: 8, ClusterStd: 0.3, Seed: 7,
	})
}

// TestConcurrentSearchAllModes exercises the documented claim that
// concurrent Search calls are safe once the index is built, across all
// six indexing modes. Run with -race to verify.
func TestConcurrentSearchAllModes(t *testing.T) {
	ds := raceDataset(t)
	for _, mode := range []Mode{Linear, KDTree, KMeans, MPLSH, Graph, Quantized} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			r, err := New(ds.Dim(), Config{Mode: mode, Index: IndexParams{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Free()
			if err := r.LoadFloat32(ds.Data); err != nil {
				t.Fatal(err)
			}
			if err := r.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := range ds.Queries {
						res, err := r.Search(ds.Queries[i], 5)
						if err != nil {
							errs <- err
							return
						}
						// Approximate modes may find fewer than k
						// candidates; the subject here is data races,
						// not recall.
						if len(res) == 0 || len(res) > 5 {
							errs <- fmt.Errorf("goroutine %d: got %d results, want 1..5", g, len(res))
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentSearchDevice checks that Device execution, which
// shares a stateful cycle simulator, serializes concurrent searches
// safely, each returning its own stats.
func TestConcurrentSearchDevice(t *testing.T) {
	ds := raceDataset(t)
	r, err := New(ds.Dim(), Config{Execution: Device, VectorLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, st, err := r.SearchStats(ds.Queries[i], 3)
				if err != nil {
					errs <- err
					return
				}
				if st.Cycles == 0 {
					errs <- fmt.Errorf("empty device stats after Search")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentSearchBatch fans SearchBatch out from several
// goroutines at once (the serving layer's batcher does exactly this
// for distinct k values).
func TestConcurrentSearchBatch(t *testing.T) {
	ds := raceDataset(t)
	r, err := New(ds.Dim(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out, err := r.SearchBatch(ds.Queries, k)
			if err != nil {
				errs <- err
				return
			}
			for _, res := range out {
				if len(res) != k {
					errs <- fmt.Errorf("k=%d: got %d results", k, len(res))
					return
				}
			}
		}(g + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSetChecksRacesSearchQuantized retargets the re-rank depth of a
// quantized region — in RAM and storage-backed — while searches run.
// SetChecks is documented to work on a live region: the depth is read
// once per query, so every answer is the one a quiescent region gives
// at one of the depths, never a selection at one and a re-rank at
// another. (SetChecks refuses 0; the engines' own test flips through
// the ADC-only depth as well.)
func TestSetChecksRacesSearchQuantized(t *testing.T) {
	ds := raceDataset(t)
	depths := []int{1, 32, ds.N()}
	ip := IndexParams{Seed: 3, M: 4, Sample: 256}
	for name, cfg := range map[string]Config{
		"ram": {Mode: Quantized, Vaults: 2, Index: ip},
		"storage": {Mode: Quantized, Vaults: 2, Index: ip, Storage: &Storage{
			Path: filepath.Join(t.TempDir(), "race.tier"), BudgetBytes: 8192,
		}},
	} {
		t.Run(name, func(t *testing.T) {
			r := buildTieredRegion(t, ds, cfg)
			want := make([][][]Result, len(depths)) // [depth][query]
			for d, depth := range depths {
				if err := r.SetChecks(depth); err != nil {
					t.Fatal(err)
				}
				for _, q := range ds.Queries {
					res, err := r.Search(q, 5)
					if err != nil {
						t.Fatal(err)
					}
					want[d] = append(want[d], res)
				}
			}
			stop := make(chan struct{})
			var flipper, searchers sync.WaitGroup
			flipper.Add(1)
			go func() {
				defer flipper.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
						if err := r.SetChecks(depths[i%len(depths)]); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			for g := 0; g < 4; g++ {
				searchers.Add(1)
				go func() {
					defer searchers.Done()
					for round := 0; round < 4; round++ {
						for qi, q := range ds.Queries {
							got, err := r.Search(q, 5)
							if err != nil {
								t.Error(err)
								return
							}
							if !slices.ContainsFunc(want, func(w [][]Result) bool { return slices.Equal(got, w[qi]) }) {
								t.Errorf("query %d: %v is the answer at none of the depths %v", qi, got, depths)
								return
							}
						}
					}
				}()
			}
			searchers.Wait()
			close(stop)
			flipper.Wait()
		})
	}
}

// TestFreeRacesSearch frees a plain region under Search and SearchBatch
// callers (the server's DELETE against a /searchbatch, which bypasses
// the batcher Free waits on): every answer is the quiescent region's,
// exactly, or ErrFreed.
func TestFreeRacesSearch(t *testing.T) {
	ds := raceDataset(t)
	var want [][]Result
	for round := 0; round < 10; round++ {
		r, err := New(ds.Dim(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.LoadFloat32(ds.Data); err != nil {
			t.Fatal(err)
		}
		if err := r.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			if want, err = r.SearchBatch(ds.Queries, 5); err != nil {
				t.Fatal(err)
			}
		}
		started := make(chan struct{}, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				started <- struct{}{}
				for {
					var got [][]Result
					var err error
					if g%2 == 0 {
						got, err = r.SearchBatch(ds.Queries, 5)
					} else {
						got = make([][]Result, len(ds.Queries))
						for qi := 0; qi < len(got) && err == nil; qi++ {
							got[qi], err = r.Search(ds.Queries[qi], 5)
						}
					}
					if errors.Is(err, ErrFreed) {
						return
					}
					if err != nil {
						t.Errorf("searcher %d: %v", g, err)
						return
					}
					for qi := range got {
						if !slices.Equal(got[qi], want[qi]) {
							t.Errorf("searcher %d, query %d: %v, want %v", g, qi, got[qi], want[qi])
							return
						}
					}
				}
			}(g)
		}
		for g := 0; g < 4; g++ {
			<-started
		}
		r.Free()
		wg.Wait()
	}
}
