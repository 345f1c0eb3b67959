package knn

// Oracle harness for the product-quantized engine. PQ is the repo's
// first approximate *linear* engine, so the pins here are the contract
// the rest of the stack builds on: recall floors against the exact
// oracle across metrics × M × k, bit-identical determinism under one
// seed, serial ≡ vault-parallel equivalence, and the degenerate case
// where re-ranking the whole database IS the exact scan.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/par"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

func pqClustered(n, dim, queries int, seed int64) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "pqtest", N: n, Dim: dim, NumQueries: queries, K: 10,
		Clusters: 16, ClusterStd: 0.25, Seed: seed,
	})
}

// pqSearch runs q as a batch of one, failing the test on an error.
func pqSearch(tb testing.TB, e *PQScan, q []float32, k int) []topk.Result {
	res, _ := pqSearchStats(tb, e, q, k)
	return res
}

// pqSearchStats is pqSearch plus the query's work accounting.
func pqSearchStats(tb testing.TB, e *PQScan, q []float32, k int) ([]topk.Result, Stats) {
	tb.Helper()
	res, st, err := pqRunOne(e, q, k)
	if err != nil {
		tb.Fatal(err)
	}
	return res, st
}

func sameResults(t *testing.T, tag string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d: %+v != %+v", tag, i, got[i], want[i])
		}
	}
}

// Re-ranking at least n candidates must reproduce the exact linear
// scan bit-for-bit — ids, order, and distances — for every supported
// metric, including ties and a zero row under cosine.
func TestPQRerankAtLeastNEqualsExact(t *testing.T) {
	const n, dim = 600, 16
	ds := pqClustered(n, dim, 8, 41)
	// Duplicate a row (distance ties) and zero a row (cosine edge).
	copy(ds.Data[5*dim:6*dim], ds.Data[6*dim:7*dim])
	for d := 0; d < dim; d++ {
		ds.Data[9*dim+d] = 0
	}
	for _, m := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
		exact := NewEngine(ds.Data, dim, m, 1)
		for _, rerank := range []int{n, n + 100} {
			e, err := NewPQScan(ds.Data, dim, m, PQParams{M: 4, Sample: 256, Rerank: rerank, Seed: 3}, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 7, n, n + 5} {
				for qi, q := range ds.Queries {
					got := pqSearch(t, e, q, k)
					want := exact.Search(q, k)
					sameResults(t, m.String(), got, want)
					_ = qi
				}
			}
		}
	}
}

// Same data, params, and seed must give bit-identical codebooks,
// codes, and search results on repeated builds.
func TestPQDeterministicAcrossBuilds(t *testing.T) {
	ds := pqClustered(800, 12, 6, 42)
	p := PQParams{M: 3, Sample: 400, Rerank: 20, Seed: 99}
	a, err := NewPQScan(ds.Data, 12, vec.Euclidean, p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPQScan(ds.Data, 12, vec.Euclidean, p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.cb, b.cb) {
		t.Fatal("same seed produced different codebooks")
	}
	if !reflect.DeepEqual(a.slabs, b.slabs) {
		t.Fatal("same seed produced different code slabs")
	}
	for _, q := range ds.Queries {
		sameResults(t, "rebuild", pqSearch(t, a, q, 10), pqSearch(t, b, q, 10))
	}
}

// Serial and vault-parallel scans must agree bit-for-bit at every
// vault count, with and without re-ranking, in their results and in
// every work counter (PQKept included). SetSerialThreshold(0)
// forces the vault path even on this small dataset. The re-rank depths
// are ADC only, exactly k, a depth every vault list fills, and one that
// no list of seven or more vaults can (1000 > n/vaults); under
// Manhattan the code widths cover every remainder of Codes.Scan's
// four-column passes.
func TestPQSerialParallelBitEquivalence(t *testing.T) {
	const n, dim, k = 3000, 16, 10
	ds := pqClustered(n, dim, 10, 43)
	type shape struct {
		metric vec.Metric
		M      int
		vaults []int
	}
	shapes := []shape{
		{vec.Euclidean, 4, []int{2, 3, 7, 32}},
		{vec.Cosine, 4, []int{2, 3, 7, 32}},
	}
	for _, M := range []int{1, 3, 4, 5, 8, 9} {
		shapes = append(shapes, shape{vec.Manhattan, M, []int{2, 7}})
	}
	for _, sh := range shapes {
		p := PQParams{M: sh.M, Sample: 512, Seed: 7}
		serial, err := NewPQScan(ds.Data, dim, sh.metric, p, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, vaults := range sh.vaults {
			par, err := NewPQScan(ds.Data, dim, sh.metric, p, vaults, nil)
			if err != nil {
				t.Fatal(err)
			}
			par.SetSerialThreshold(0)
			if par.Vaults() != vaults {
				t.Fatalf("vaults = %d, want %d", par.Vaults(), vaults)
			}
			for _, rerank := range []int{0, k, 50, 1000} {
				serial.SetRerank(rerank)
				par.SetRerank(rerank)
				for _, q := range ds.Queries {
					tag := fmt.Sprintf("%v/M=%d/vaults=%d/rerank=%d", sh.metric, sh.M, vaults, rerank)
					got, gst := pqSearchStats(t, par, q, k)
					want, wst := pqSearchStats(t, serial, q, k)
					sameResults(t, tag, got, want)
					// One bound for every vault, and the vault lists in row
					// order: the stats do not see the partition either.
					if gst != wst {
						t.Fatalf("%s: stats %+v, serial %+v", tag, gst, wst)
					}
				}
			}
		}
	}
}

// Recall against the exact oracle across metrics × M × k. Floors are
// deliberately conservative; the spine's pq_single workload records
// the operating point's recall. Re-ranking 4k candidates is the
// documented way to buy recall back, and the floor reflects it.
func TestPQRecallAcrossMetricsMK(t *testing.T) {
	const n, dim = 2000, 16
	ds := pqClustered(n, dim, 20, 44)
	for _, m := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
		exact := NewEngine(ds.Data, dim, m, 1)
		for _, M := range []int{2, 4, 8, 5} { // 5 exercises uneven subspace widths
			// One training per (metric, M); SetRerank sweeps the
			// accuracy knob over the same codebook.
			e, err := NewPQScan(ds.Data, dim, m, PQParams{M: M, Sample: 1024, Seed: 11}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 10} {
				var adcSum, midSum, deepSum float64
				for _, q := range ds.Queries {
					want := exact.Search(q, k)
					e.SetRerank(0)
					adcSum += dataset.Recall(want, pqSearch(t, e, q, k))
					e.SetRerank(4 * k)
					midSum += dataset.Recall(want, pqSearch(t, e, q, k))
					e.SetRerank(100)
					deepSum += dataset.Recall(want, pqSearch(t, e, q, k))
				}
				nq := float64(len(ds.Queries))
				adcRecall, midRecall, deepRecall := adcSum/nq, midSum/nq, deepSum/nq
				// Re-ranking 5% of the database recovers near-exact
				// recall at every operating point (measured >= 0.99 on
				// this seed; 0.95 leaves headroom for codebook-quality
				// drift, which is what this pin is meant to catch).
				if deepRecall < 0.95 {
					t.Errorf("%v M=%d k=%d: rerank-100 recall %.3f below floor 0.95", m, M, k, deepRecall)
				}
				// Recall is monotone in re-rank depth: the ADC top-k is
				// a subset of the candidate set, and exact re-scoring
				// never ranks a true neighbor below an impostor.
				if midRecall < adcRecall-1e-9 || deepRecall < midRecall-1e-9 {
					t.Errorf("%v M=%d k=%d: recall not monotone in rerank: %.3f → %.3f → %.3f",
						m, M, k, adcRecall, midRecall, deepRecall)
				}
				// Pure ADC floors only where the quantizer is fine
				// enough to rank usefully (measured >= 0.51 here).
				if M >= 4 && k == 10 && adcRecall < 0.35 {
					t.Errorf("%v M=%d k=%d: ADC recall %.3f below floor 0.35", m, M, k, adcRecall)
				}
			}
		}
	}
}

func TestPQStatsAccounting(t *testing.T) {
	const n, dim, k, rerank = 500, 8, 5, 40
	data := testData(n, dim, 45)
	e, err := NewPQScan(data, dim, vec.Euclidean, PQParams{M: 4, Sample: 256, Rerank: rerank, Seed: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := testData(1, dim, 46)
	_, st := pqSearchStats(t, e, q, k)
	if st.TableBuilds != 1 {
		t.Errorf("TableBuilds = %d, want 1", st.TableBuilds)
	}
	if st.CodeEvals != n {
		t.Errorf("CodeEvals = %d, want %d", st.CodeEvals, n)
	}
	if st.DistEvals != rerank {
		t.Errorf("DistEvals = %d, want %d (rerank only)", st.DistEvals, rerank)
	}
	wantDims := 256*dim + rerank*dim
	if st.Dims != wantDims {
		t.Errorf("Dims = %d, want %d", st.Dims, wantDims)
	}
	if st.PQInserts != n+rerank {
		t.Errorf("PQInserts = %d, want %d", st.PQInserts, n+rerank)
	}
	// A batch of two returns the work of both queries.
	_, c, _, err := e.RunBatch([][]float32{q, q}, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.TableBuilds != 2 || c.CodeEvals != 2*n || c.DistEvals != 2*rerank {
		t.Errorf("batch of two: stats %+v", c)
	}
}

func TestPQBatchMatchesSingle(t *testing.T) {
	const n, dim, k = 2600, 12, 8
	ds := pqClustered(n, dim, 12, 47)
	e, err := NewPQScan(ds.Data, dim, vec.Euclidean, PQParams{M: 4, Sample: 512, Rerank: 30, Seed: 5}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSerialThreshold(0)
	want := make([][]topk.Result, len(ds.Queries))
	var sum Stats
	for i, q := range ds.Queries { // a batch of one: the vault-parallel path
		var st Stats
		want[i], st = pqSearchStats(t, e, q, k)
		sum.Add(st)
	}
	// Long batch: cross-query fan-out with serial scans, accounting the
	// work of its queries run one at a time.
	got, st, _, err := e.RunBatch(ds.Queries, k, nil)
	if err != nil || st != sum {
		t.Fatalf("fanout: stats %+v, err %v; want the queries' sum %+v", st, err, sum)
	}
	for i := range want {
		sameResults(t, "fanout", got[i], want[i])
	}
}

func TestPQEngineErrors(t *testing.T) {
	data := testData(100, 8, 48)
	cases := []struct {
		name   string
		data   []float32
		dim    int
		metric vec.Metric
		p      PQParams
	}{
		{"ragged", data[:3], 8, vec.Euclidean, PQParams{}},
		{"zero dim", data, 0, vec.Euclidean, PQParams{}},
		{"hamming", data, 8, vec.HammingMetric, PQParams{}},
		{"chi2", data, 8, vec.ChiSquared, PQParams{}},
		{"jaccard", data, 8, vec.JaccardMetric, PQParams{}},
		{"M too large", data, 8, vec.Euclidean, PQParams{M: 9}},
		{"negative rerank", data, 8, vec.Euclidean, PQParams{Rerank: -1}},
	}
	for _, c := range cases {
		if _, err := NewPQScan(c.data, c.dim, c.metric, c.p, 1, nil); err == nil {
			t.Errorf("%s: accepted invalid config", c.name)
		}
	}
}

func TestPQAccessorsAndSetRerank(t *testing.T) {
	const n, dim = 300, 8
	data := testData(n, dim, 49)
	e, err := NewPQScan(data, dim, vec.Euclidean, PQParams{M: 2, Sample: 128, Seed: 2}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.N() != n || e.Dim() != dim || e.Metric() != vec.Euclidean || e.M() != 2 {
		t.Fatalf("accessors: N=%d Dim=%d Metric=%v M=%d", e.N(), e.Dim(), e.Metric(), e.M())
	}
	if e.CodeBytes() != n*2 {
		t.Fatalf("CodeBytes = %d, want %d", e.CodeBytes(), n*2)
	}
	if e.Codebook() == nil {
		t.Fatal("nil codebook")
	}
	if e.Rerank() != 0 {
		t.Fatalf("Rerank = %d", e.Rerank())
	}
	e.SetRerank(-5)
	if e.Rerank() != 0 {
		t.Fatalf("SetRerank(-5) → %d, want 0", e.Rerank())
	}
	// Raising rerank to n turns the engine exact.
	e.SetRerank(n)
	exact := NewEngine(data, dim, vec.Euclidean, 1)
	q := testData(1, dim, 50)
	sameResults(t, "set-rerank-exact", pqSearch(t, e, q, 7), exact.Search(q, 7))
}

func TestPQKEdgeCases(t *testing.T) {
	data := testData(50, 6, 51)
	e, err := NewPQScan(data, 6, vec.Euclidean, PQParams{M: 3, Sample: 50, Seed: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := testData(1, 6, 52)
	if got := pqSearch(t, e, q, 100); len(got) != 50 {
		t.Fatalf("k>n returned %d results, want 50", len(got))
	}
	// k <= 0 panics in the ADC pass, which the batch returns as the
	// query's error (the region layer rejects it before any engine sees
	// it).
	var pe *par.PanicError
	if _, _, at, err := e.RunBatch([][]float32{q}, 0, nil); !errors.As(err, &pe) || at != 0 {
		t.Fatalf("k=0: failedAt %d, err %v; want query 0's panic", at, err)
	}
}

// SetRerank beside running searches: every answer must be one of the
// three a quiescent engine gives at the depths being flipped between —
// a query that selected at one depth and re-ranked at another would
// match none — and the race detector must stay quiet. The tiered
// engine shares the depth and the ADC pass, and is held to the same.
func TestPQSetRerankRacesSearch(t *testing.T) {
	const n, dim, k = 1200, 12, 5
	ds := pqClustered(n, dim, 16, 53)
	depths := []int{0, 32, n}
	p := PQParams{M: 4, Sample: 256, Seed: 9}
	ram, err := NewPQScan(ds.Data, dim, vec.Euclidean, p, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ram.SetSerialThreshold(0)
	tiered, err := NewPQScan(ds.Data, dim, vec.Euclidean, p, 3, tieredStore(t, ds.Data, dim, 3, 0.5, true))
	if err != nil {
		t.Fatal(err)
	}
	tiered.SetSerialThreshold(0)
	for name, e := range map[string]*PQScan{"ram": ram, "tiered": tiered} {
		search := func(q []float32) ([]topk.Result, error) {
			out, _, _, err := e.RunBatch([][]float32{q}, k, nil)
			if err != nil {
				return nil, err
			}
			return out[0], nil
		}
		t.Run(name, func(t *testing.T) {
			want := make([][][]topk.Result, len(depths)) // [depth][query]
			for d, depth := range depths {
				e.SetRerank(depth)
				for _, q := range ds.Queries {
					res, err := search(q)
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
						e.SetRerank(depths[i%len(depths)])
					}
				}
			}()
			for g := 0; g < 4; g++ {
				searchers.Add(1)
				go func() {
					defer searchers.Done()
					for round := 0; round < 6; round++ {
						for qi, q := range ds.Queries {
							got, err := search(q)
							if err != nil {
								t.Error(err)
								return
							}
							if !slices.ContainsFunc(want, func(w [][]topk.Result) bool { return slices.Equal(got, w[qi]) }) {
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
