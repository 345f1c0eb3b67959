package knn

// Property tests pinning the vault-parallel contract: at every vault
// count, every engine returns results bit-identical to its serial scan
// — ids, order, and distances — and partition-independent work
// accounting. Datasets are tie-heavy (few distinct vectors, heavily
// duplicated) so boundary ties across vault edges are the common case,
// in the oracle style of internal/topk/property_test.go.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ssam/internal/obs"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// vaultCountsUnderTest includes 1 (serial reference), odd counts that
// split rows unevenly, counts above GOMAXPROCS, and the 32-vault cap.
var vaultCountsUnderTest = []int{1, 2, 3, 8, 32}

// tieKValues covers k = 1, k just below N, k = N, and k > N; with the
// larger vault counts every one of these also exceeds the per-vault
// slice size.
func tieKValues(n int) []int {
	ks := []int{1, n + 4}
	if n > 1 {
		ks = append(ks, n-1, n)
	}
	return ks
}

// tieHeavyFloats builds n rows drawn from a pool of at most 5 distinct
// vectors, so duplicate distances dominate and ties must resolve by id.
// Components stay in [0.5, 1.5) so Cosine never sees a zero vector.
func tieHeavyFloats(rng *rand.Rand, n, dim int) []float32 {
	pool := make([][]float32, 1+rng.Intn(5))
	for p := range pool {
		v := make([]float32, dim)
		for i := range v {
			v[i] = 0.5 + rng.Float32()
		}
		pool[p] = v
	}
	data := make([]float32, 0, n*dim)
	for r := 0; r < n; r++ {
		data = append(data, pool[rng.Intn(len(pool))]...)
	}
	return data
}

// checkVaultStats enforces the accounting contract: DistEvals, Dims
// and PQInserts are partition-independent; PQKept may only grow under
// vault parallelism (vault-local selectors bound against fewer
// competitors).
func checkVaultStats(t *testing.T, label string, serial, par Stats) {
	t.Helper()
	if par.DistEvals != serial.DistEvals || par.Dims != serial.Dims || par.PQInserts != serial.PQInserts {
		t.Fatalf("%s: stats diverge from serial:\nserial %+v\nvaults %+v", label, serial, par)
	}
	if par.PQKept < serial.PQKept {
		t.Fatalf("%s: vault PQKept %d below serial %d", label, par.PQKept, serial.PQKept)
	}
}

func TestEngineVaultsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	metrics := []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		dim := 2 + rng.Intn(6)
		data := tieHeavyFloats(rng, n, dim)
		q := tieHeavyFloats(rng, 1, dim)
		for _, m := range metrics {
			serial := NewEngine(data, dim, m, 1)
			for _, k := range tieKValues(n) {
				want, wantSt := serial.SearchStats(q, k)
				for _, v := range vaultCountsUnderTest {
					e := NewEngine(data, dim, m, v)
					e.SetSerialThreshold(0)
					got, gotSt := e.SearchStats(q, k)
					label := fmt.Sprintf("metric=%v n=%d dim=%d k=%d vaults=%d", m, n, dim, k, v)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
					}
					checkVaultStats(t, label, wantSt, gotSt)
				}
			}
		}
	}
}

func TestFixedEngineVaultsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	metrics := []vec.Metric{vec.Euclidean, vec.Manhattan}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		dim := 2 + rng.Intn(6)
		// Q16.16 pool values; small magnitudes keep the fixed kernels
		// far from overflow.
		pool := make([][]int32, 1+rng.Intn(5))
		for p := range pool {
			v := make([]int32, dim)
			for i := range v {
				v[i] = int32(rng.Intn(1 << 18))
			}
			pool[p] = v
		}
		data := make([]int32, 0, n*dim)
		for r := 0; r < n; r++ {
			data = append(data, pool[rng.Intn(len(pool))]...)
		}
		q := make([]int32, dim)
		for i := range q {
			q[i] = int32(rng.Intn(1 << 18))
		}
		for _, m := range metrics {
			serial := NewFixedEngine(data, dim, m, 1)
			for _, k := range tieKValues(n) {
				want, wantSt := serial.SearchStats(q, k)
				for _, v := range vaultCountsUnderTest {
					e := NewFixedEngine(data, dim, m, v)
					e.SetSerialThreshold(0)
					got, gotSt := e.SearchStats(q, k)
					label := fmt.Sprintf("fixed metric=%v n=%d dim=%d k=%d vaults=%d", m, n, dim, k, v)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
					}
					checkVaultStats(t, label, wantSt, gotSt)
				}
			}
		}
	}
}

func TestHammingEngineVaultsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const bits = 96
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(60)
		pool := make([]vec.Binary, 1+rng.Intn(5))
		for p := range pool {
			b := vec.NewBinary(bits)
			for i := range b.Words {
				b.Words[i] = rng.Uint64()
			}
			// Mask tail bits beyond Dim like SignBinarize would.
			if rem := bits % 64; rem != 0 {
				b.Words[len(b.Words)-1] &= (1 << rem) - 1
			}
			pool[p] = b
		}
		codes := make([]vec.Binary, n)
		for r := range codes {
			codes[r] = pool[rng.Intn(len(pool))]
		}
		q := pool[rng.Intn(len(pool))]
		serial := NewHammingEngine(codes, 1)
		for _, k := range tieKValues(n) {
			want, wantSt := serial.SearchStats(q, k)
			for _, v := range vaultCountsUnderTest {
				e := NewHammingEngine(codes, v)
				e.SetSerialThreshold(0)
				got, gotSt := e.SearchStats(q, k)
				label := fmt.Sprintf("hamming n=%d k=%d vaults=%d", n, k, v)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s:\ngot  %v\nwant %v", label, got, want)
				}
				checkVaultStats(t, label, wantSt, gotSt)
			}
		}
	}
}

// TestEngineVaultBatchMatchesSerial pins the batch policy's output:
// whichever side of the short-batch/long-batch split a call lands on,
// results match the serial engine bit for bit.
func TestEngineVaultBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const n, dim, k = 48, 4, 7
	data := tieHeavyFloats(rng, n, dim)
	serial := NewEngine(data, dim, vec.Euclidean, 1)
	for _, batchLen := range []int{1, 2, 5, 9} {
		qs := make([][]float32, batchLen)
		for i := range qs {
			qs[i] = tieHeavyFloats(rng, 1, dim)
		}
		want := serial.SearchBatch(qs, k)
		for _, v := range []int{1, 3, 8} {
			e := NewEngine(data, dim, vec.Euclidean, v)
			e.SetSerialThreshold(0)
			got := e.SearchBatch(qs, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch=%d vaults=%d:\ngot  %v\nwant %v", batchLen, v, got, want)
			}
		}
	}
}

// TestEngineVaultSpans checks the per-vault trace shape: one "vault"
// child per non-empty slice, row tags summing to the database size.
func TestEngineVaultSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n, dim, vaults = 37, 4, 8
	e := NewEngine(tieHeavyFloats(rng, n, dim), dim, vec.Euclidean, vaults)
	e.SetSerialThreshold(0)
	tracer := obs.NewTracer(0, 4)
	tr := tracer.Trace("vaults", true)
	e.Run([][]float32{tieHeavyFloats(rng, 1, dim)}, 5, tr.Root())
	data := tracer.Finish(tr)
	spans := data.Root.FindAll("vault")
	if len(spans) != vaults {
		t.Fatalf("got %d vault spans, want %d", len(spans), vaults)
	}
	rows := 0
	for _, sp := range spans {
		r, ok := sp.Tags["rows"].(int)
		if !ok {
			t.Fatalf("vault span missing rows tag: %+v", sp.Tags)
		}
		rows += r
	}
	if rows != n {
		t.Fatalf("vault row tags sum to %d, want %d", rows, n)
	}
}

// TestEngineVaultsConcurrent hammers one vault-parallel engine from
// many goroutines (run under -race by ci.sh) and checks every call
// still returns serial-exact results and accounting — vault workers
// must not share or double-count anything across queries.
func TestEngineVaultsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n, dim, k, goroutines, iters = 64, 6, 9, 8, 25
	data := tieHeavyFloats(rng, n, dim)
	serial := NewEngine(data, dim, vec.Euclidean, 1)
	e := NewEngine(data, dim, vec.Euclidean, 8)
	e.SetSerialThreshold(0)

	queries := make([][]float32, goroutines)
	wants := make([][]topk.Result, goroutines)
	wantSts := make([]Stats, goroutines)
	for i := range queries {
		queries[i] = tieHeavyFloats(rng, 1, dim)
		wants[i], wantSts[i] = serial.SearchStats(queries[i], k)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				got, st := e.SearchStats(queries[g], k)
				if !reflect.DeepEqual(got, wants[g]) {
					errs <- fmt.Errorf("goroutine %d iter %d: results diverged", g, it)
					return
				}
				if st.DistEvals != wantSts[g].DistEvals || st.Dims != wantSts[g].Dims ||
					st.PQInserts != wantSts[g].PQInserts || st.PQKept < wantSts[g].PQKept {
					errs <- fmt.Errorf("goroutine %d iter %d: stats %+v vs serial %+v", g, it, st, wantSts[g])
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
}
