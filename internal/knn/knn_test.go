package knn

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ssam/internal/dataset"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

func testData(n, dim int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return data
}

func bruteForce(data []float32, dim int, q []float32, k int, m vec.Metric) []topk.Result {
	sel := topk.New(k)
	for i := 0; i < len(data)/dim; i++ {
		sel.Push(i, vec.Distance(m, q, data[i*dim:(i+1)*dim]))
	}
	return sel.Results()
}

func TestEngineMatchesBruteForce(t *testing.T) {
	data := testData(300, 12, 7)
	q := testData(1, 12, 8)
	for _, m := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
		e := NewEngine(data, 12, m, 1)
		got := e.Search(q, 5)
		want := bruteForce(data, 12, q, 5, m)
		if len(got) != len(want) {
			t.Fatalf("%v: len %d != %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%v result %d: %+v != %+v", m, i, got[i], want[i])
			}
		}
	}
}

func TestEngineParallelMatchesSequential(t *testing.T) {
	data := testData(1000, 10, 3)
	q := testData(1, 10, 4)
	seq := NewEngine(data, 10, vec.Euclidean, 1).Search(q, 10)
	par := NewEngine(data, 10, vec.Euclidean, 8).Search(q, 10)
	if len(seq) != len(par) {
		t.Fatalf("length mismatch %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("result %d: %+v != %+v", i, seq[i], par[i])
		}
	}
}

// Property: parallel and sequential engines agree for arbitrary sizes,
// worker counts and k.
func TestEngineParallelQuick(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, wRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%10 + 1
		w := int(wRaw)%8 + 1
		dim := 6
		data := testData(n, dim, seed)
		q := testData(1, dim, seed+1)
		a := NewEngine(data, dim, vec.Euclidean, 1).Search(q, k)
		b := NewEngine(data, dim, vec.Euclidean, w).Search(q, k)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Dist != b[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchBatchOrder(t *testing.T) {
	data := testData(200, 8, 11)
	qs := [][]float32{testData(1, 8, 12), testData(1, 8, 13), testData(1, 8, 14)}
	e := NewEngine(data, 8, vec.Euclidean, 4)
	got := e.SearchBatch(qs, 3)
	if len(got) != 3 {
		t.Fatalf("batch len = %d", len(got))
	}
	for i, q := range qs {
		want := e.Search(q, 3)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("query %d result %d mismatch", i, j)
			}
		}
	}
}

func TestEngineStats(t *testing.T) {
	data := testData(100, 8, 5)
	e := NewEngine(data, 8, vec.Euclidean, 1)
	_, st := e.SearchStats(testData(1, 8, 6), 5)
	if st.DistEvals != 100 {
		t.Errorf("DistEvals = %d, want 100", st.DistEvals)
	}
	if st.Dims != 800 {
		t.Errorf("Dims = %d, want 800", st.Dims)
	}
	if st.PQInserts != 100 || st.PQKept < 5 || st.PQKept > 100 {
		t.Errorf("PQ stats implausible: %+v", st)
	}
}

// TestStatsAdd sets every counter field of Stats by reflection, so a
// counter that Add forgets to sum fails here by name.
func TestStatsAdd(t *testing.T) {
	var a, b, want Stats
	av, bv, wv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), reflect.ValueOf(&want).Elem()
	for i := 0; i < av.NumField(); i++ {
		name := av.Type().Field(i).Name
		if name == "Seq" {
			continue
		}
		if av.Field(i).Kind() != reflect.Int {
			t.Fatalf("Stats.%s is a %v; this test sums int counters only", name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(10 * (i + 1)))
		wv.Field(i).SetInt(int64(11 * (i + 1)))
	}
	a.Seq, b.Seq, want.Seq = 9, 7, 9
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, w := av.Field(i).Interface(), wv.Field(i).Interface(); got != w {
			t.Errorf("after Add, %s = %v, want %v", av.Type().Field(i).Name, got, w)
		}
	}
	// Seq is a generation marker, not a work counter: Add keeps the
	// newest value seen rather than summing.
	a.Add(Stats{Seq: 12})
	if a.Seq != 12 {
		t.Fatalf("Seq = %d, want 12", a.Seq)
	}
}

func TestEngineAccessors(t *testing.T) {
	data := testData(50, 4, 1)
	e := NewEngine(data, 4, vec.Manhattan, 2)
	if e.N() != 50 || e.Dim() != 4 || e.Metric() != vec.Manhattan {
		t.Fatalf("accessors: %d %d %v", e.N(), e.Dim(), e.Metric())
	}
}

func TestNewEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on ragged data")
		}
	}()
	NewEngine(make([]float32, 10), 3, vec.Euclidean, 1)
}

func TestFixedEngineMatchesFloat(t *testing.T) {
	// With well-separated data, fixed-point and float linear search
	// return the same ids (the II-D fixed-point claim).
	ds := dataset.Generate(dataset.Spec{
		Name: "t", N: 400, Dim: 16, NumQueries: 5, K: 5,
		Clusters: 8, ClusterStd: 0.3, Seed: 9,
	})
	fe := NewEngine(ds.Data, 16, vec.Euclidean, 1)
	xe := NewFixedEngine(ds.ToFixed(), 16, vec.Euclidean, 1)
	agree := 0
	total := 0
	for _, q := range ds.Queries {
		a := fe.Search(q, 5)
		b := xe.Search(vec.ToFixedVec(q), 5)
		for i := range a {
			total++
			if a[i].ID == b[i].ID {
				agree++
			}
		}
	}
	if float64(agree)/float64(total) < 0.95 {
		t.Fatalf("fixed/float agreement = %d/%d", agree, total)
	}
}

func TestFixedEngineParallel(t *testing.T) {
	data := testData(500, 8, 21)
	fx := vec.ToFixedVec(data)
	q := vec.ToFixedVec(testData(1, 8, 22))
	a := NewFixedEngine(fx, 8, vec.Euclidean, 1).Search(q, 7)
	b := NewFixedEngine(fx, 8, vec.Euclidean, 6).Search(q, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel fixed mismatch at %d", i)
		}
	}
}

func TestFixedEngineManhattan(t *testing.T) {
	data := []float32{0, 0, 3, 3, 1, 1}
	fx := vec.ToFixedVec(data)
	e := NewFixedEngine(fx, 2, vec.Manhattan, 1)
	got := e.Search(vec.ToFixedVec([]float32{0.4, 0.4}), 2)
	if got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("manhattan fixed order: %+v", got)
	}
}

func TestFixedEngineRejectsMetric(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for cosine fixed engine")
		}
	}()
	NewFixedEngine(make([]int32, 8), 2, vec.Cosine, 1)
}

func TestHammingEngine(t *testing.T) {
	mk := func(bits ...int) vec.Binary {
		b := vec.NewBinary(64)
		for _, i := range bits {
			b.Set(i, true)
		}
		return b
	}
	db := []vec.Binary{mk(1, 2, 3), mk(1), mk(40, 41, 42, 43)}
	e := NewHammingEngine(db, 1)
	got := e.Search(mk(1, 2), 2)
	if got[0].ID != 0 || got[0].Dist != 1 {
		t.Fatalf("nearest = %+v", got[0])
	}
	if got[1].ID != 1 || got[1].Dist != 1 {
		t.Fatalf("second = %+v", got[1])
	}
}

func TestHammingEngineParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := make([]vec.Binary, 500)
	for i := range db {
		b := vec.NewBinary(128)
		for j := 0; j < 128; j++ {
			b.Set(j, rng.Intn(2) == 1)
		}
		db[i] = b
	}
	q := db[17]
	a := NewHammingEngine(db, 1).Search(q, 9)
	b := NewHammingEngine(db, 8).Search(q, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel hamming mismatch at %d", i)
		}
	}
	if a[0].ID != 17 || a[0].Dist != 0 {
		t.Fatalf("self not nearest: %+v", a[0])
	}
}

func TestGroundTruth(t *testing.T) {
	data := testData(100, 6, 2)
	qs := [][]float32{testData(1, 6, 3)}
	gt := GroundTruth(data, 6, qs, 4)
	want := bruteForce(data, 6, qs[0], 4, vec.Euclidean)
	for i := range want {
		if gt[0][i] != want[i] {
			t.Fatalf("ground truth mismatch at %d", i)
		}
	}
}
