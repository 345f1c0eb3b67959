package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ssam"
)

// Lifetime suite: LoadFloat32, BuildIndex and Free against running
// searches. A search leases the shard set it starts on, so every answer
// is exact over exactly one loaded dataset or a clean refusal — never a
// freed region, never an id of one dataset remapped through another's
// table. Run with -race.

const (
	lifeDims, lifeShards, lifeK = 6, 4, 5
	lifeSearchers               = 8
)

// oracle holds the brute-force answers of a fixed query set over one
// dataset, from a single unsharded region.
func oracle(t *testing.T, data []float32, qs [][]float32) [][]ssam.Result {
	t.Helper()
	r := buildRegion(t, data, lifeDims, ssam.Config{})
	defer r.Free()
	want := make([][]ssam.Result, len(qs))
	for i, q := range qs {
		res, err := r.Search(q, lifeK)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	return want
}

func lifeQueries() [][]float32 {
	qs := make([][]float32, 16)
	for i := range qs {
		qs[i] = randData(1, lifeDims, int64(900+i))
	}
	return qs
}

// searchUntil runs lifeSearchers goroutines, alternating Search and
// SearchBatch, until stop closes. Every success must match one of the
// oracles in full; every error must be one of the two documented
// refusals. It returns how many searches succeeded.
func searchUntil(t *testing.T, cl *Cluster, qs [][]float32, stop <-chan struct{}, oracles ...[][]ssam.Result) (wait func() uint64) {
	t.Helper()
	var wg sync.WaitGroup
	var ok atomic.Uint64
	check := func(qi int, got []ssam.Result) error {
		for _, want := range oracles {
			if slices.Equal(got, want[qi]) {
				return nil
			}
		}
		return fmt.Errorf("query %d: %v matches no loaded dataset in full", qi, got)
	}
	for g := 0; g < lifeSearchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := rng.Intn(len(qs))
				var err error
				if i%4 == 3 {
					var resp BatchResponse
					if resp, err = cl.SearchBatch(qs[qi:qi+1], lifeK); err == nil {
						err = check(qi, resp.Results[0])
					}
				} else {
					var resp Response
					if resp, err = cl.Search(qs[qi], lifeK); err == nil {
						err = check(qi, resp.Results)
					}
				}
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ssam.ErrFreed), err.Error() == "cluster: Search before BuildIndex":
					runtime.Gosched() // refused: back off, the loader needs the core
				default:
					t.Errorf("searcher %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	return func() uint64 { wg.Wait(); return ok.Load() }
}

// TestReloadUnderSearch reloads and rebuilds the same dataset under
// eight searchers. Before shard sets were leased this dereferenced a
// freed shard region within milliseconds.
func TestReloadUnderSearch(t *testing.T) {
	data := randData(16*lifeShards, lifeDims, 31)
	qs := lifeQueries()
	cl := buildCluster(t, data, lifeDims, ssam.Config{}, Options{Shards: lifeShards})
	defer cl.Free()

	stop := make(chan struct{})
	wait := searchUntil(t, cl, qs, stop, oracle(t, data, qs))
	for i := 0; i < 200; i++ {
		if err := cl.LoadFloat32(data); err != nil {
			t.Fatal(err)
		}
		if err := cl.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if wait() == 0 {
		t.Fatal("no search succeeded across 200 reloads")
	}
	if got := cl.Len(); got != 16*lifeShards {
		t.Fatalf("Len = %d after the reloads, want %d", got, 16*lifeShards)
	}
}

// TestFreeUnderSearch frees the cluster under eight searchers: searches
// in flight finish exactly, later ones get ErrFreed.
func TestFreeUnderSearch(t *testing.T) {
	data := randData(16*lifeShards, lifeDims, 37)
	qs := lifeQueries()
	want := oracle(t, data, qs)
	for round := 0; round < 20; round++ {
		cl := buildCluster(t, data, lifeDims, ssam.Config{}, Options{Shards: lifeShards})
		stop := make(chan struct{})
		wait := searchUntil(t, cl, qs, stop, want)
		for cl.ShardStat(0).Queries == 0 && !t.Failed() {
			runtime.Gosched() // let the searchers get going before the teardown
		}
		cl.Free()
		if _, err := cl.Search(qs[0], lifeK); !errors.Is(err, ssam.ErrFreed) {
			t.Fatalf("search after Free = %v, want ErrFreed", err)
		}
		close(stop)
		wait()
	}
}

// TestReloadAlternatingDatasets alternates two different datasets (of
// different sizes, so their id tables differ) under the searchers: a
// result computed on one generation's region must never be remapped
// through the other's ids, so every answer is one oracle's in full.
func TestReloadAlternatingDatasets(t *testing.T) {
	a := randData(16*lifeShards, lifeDims, 41)
	b := randData(23*lifeShards+1, lifeDims, 43)
	qs := lifeQueries()
	cl := buildCluster(t, a, lifeDims, ssam.Config{}, Options{Shards: lifeShards, Partition: HashRows})
	defer cl.Free()

	stop := make(chan struct{})
	wait := searchUntil(t, cl, qs, stop, oracle(t, a, qs), oracle(t, b, qs))
	for i := 0; i < 200; i++ {
		next := b
		if i%2 == 1 {
			next = a
		}
		if err := cl.LoadFloat32(next); err != nil {
			t.Fatal(err)
		}
		if err := cl.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if wait() == 0 {
		t.Fatal("no search succeeded across 200 reloads")
	}
}
