package mutate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ssam/internal/knn"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// oracleFloat is the reference implementation: a serial scan over
// explicit (id, row) pairs under the same (distance, id) total order.
func oracleFloat(metric vec.Metric, ids []int, rows [][]float32, q []float32, k int) []topk.Result {
	if k <= 0 || len(ids) == 0 {
		return nil
	}
	sel := topk.New(k)
	for i, id := range ids {
		sel.Push(id, vec.Distance(metric, q, rows[i]))
	}
	return sel.Results()
}

func randRows(r *rand.Rand, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		v := make([]float32, dim)
		for j := range v {
			v[j] = r.Float32()
		}
		rows[i] = v
	}
	return rows
}

// tieRows draws coordinates from a tiny discrete set so distances
// collide constantly, exercising the id tie-break.
func tieRows(r *rand.Rand, n, dim int) [][]float32 {
	rows := make([][]float32, n)
	for i := range rows {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.Intn(3))
		}
		rows[i] = v
	}
	return rows
}

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func flatten(rows [][]float32) []float32 {
	var out []float32
	for _, r := range rows {
		out = append(out, r...)
	}
	return out
}

// TestSeedMatchesEngine pins the gen-0 guarantee: a seeded store with
// ids 0..n-1 answers bit-identically to the immutable linear engine
// over the same data, at every vault count and on both scan paths.
func TestSeedMatchesEngine(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n, dim = 300, 8
	rows := tieRows(r, n, dim)
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
		for _, vaults := range []int{1, 4, 32} {
			s := NewFloat(dim, metric, Options{Vaults: vaults, SerialBelow: -1})
			if err := s.Seed(seqIDs(n), rows); err != nil {
				t.Fatalf("Seed: %v", err)
			}
			eng := knn.NewEngineVaults(flatten(rows), dim, metric, 2, vaults)
			eng.SetSerialThreshold(0)
			for _, k := range []int{1, 7, n, n + 5} {
				q := rows[r.Intn(n)]
				got, st := s.SearchStats(q, k)
				want, engSt := eng.SearchStats(q, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metric=%v vaults=%d k=%d: store %v != engine %v", metric, vaults, k, got, want)
				}
				if st.Seq != 0 {
					t.Fatalf("seed generation should be seq 0, got %d", st.Seq)
				}
				if st.DistEvals != engSt.DistEvals || st.Dims != engSt.Dims {
					t.Fatalf("work accounting mismatch: store %+v engine %+v", st, engSt)
				}
			}
		}
	}
}

func TestUpsertDeleteBasics(t *testing.T) {
	s := NewFloat(2, vec.Euclidean, Options{Vaults: 2})
	if got := s.Seq(); got != 0 {
		t.Fatalf("fresh store seq = %d", got)
	}
	seq1, err := s.Upsert(10, []float32{1, 0})
	if err != nil || seq1 != 1 {
		t.Fatalf("first upsert: seq=%d err=%v", seq1, err)
	}
	seq2, err := s.Upsert(20, []float32{0, 1})
	if err != nil || seq2 != 2 {
		t.Fatalf("second upsert: seq=%d err=%v", seq2, err)
	}
	if s.Len() != 2 || s.Dead() != 0 {
		t.Fatalf("len=%d dead=%d, want 2/0", s.Len(), s.Dead())
	}

	// Replace: live count steady, one tombstone appears.
	seq3, err := s.Upsert(10, []float32{5, 5})
	if err != nil || seq3 != 3 {
		t.Fatalf("replace: seq=%d err=%v", seq3, err)
	}
	if s.Len() != 2 || s.Dead() != 1 {
		t.Fatalf("after replace len=%d dead=%d, want 2/1", s.Len(), s.Dead())
	}
	if row, ok := s.Get(10); !ok || row[0] != 5 {
		t.Fatalf("Get(10) = %v, %v", row, ok)
	}

	// Delete miss does not commit.
	seq, ok := s.Delete(999)
	if ok || seq != 3 {
		t.Fatalf("delete miss: seq=%d ok=%v", seq, ok)
	}
	seq4, ok := s.Delete(20)
	if !ok || seq4 != 4 {
		t.Fatalf("delete hit: seq=%d ok=%v", seq4, ok)
	}
	if _, ok := s.Get(20); ok {
		t.Fatal("Get(20) found a deleted row")
	}
	if s.Len() != 1 || s.Dead() != 2 {
		t.Fatalf("after delete len=%d dead=%d, want 1/2", s.Len(), s.Dead())
	}

	res, st := s.SearchStats([]float32{5, 5}, 10)
	if len(res) != 1 || res[0].ID != 10 || res[0].Dist != 0 {
		t.Fatalf("search = %v", res)
	}
	if st.Seq != 4 {
		t.Fatalf("search stats seq = %d, want 4", st.Seq)
	}

	stats := s.Stats()
	if stats.Upserts != 3 || stats.Deletes != 1 || stats.Seq != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if want := 2.0 / 3.0; math.Abs(stats.GarbageRatio-want) > 1e-12 {
		t.Fatalf("garbage ratio = %v, want %v", stats.GarbageRatio, want)
	}
}

func TestValidation(t *testing.T) {
	s := NewFloat(3, vec.Euclidean, Options{Vaults: 1})
	if _, err := s.Upsert(0, []float32{1, 2}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := s.Upsert(0, []float32{1, 2, float32(math.NaN())}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := s.Upsert(0, []float32{1, 2, float32(math.Inf(1))}); err == nil {
		t.Fatal("Inf accepted")
	}
	if _, err := s.Upsert(-1, []float32{1, 2, 3}); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := s.Seed([]int{0}, [][]float32{{1, 2, 3}, {4, 5, 6}}); err == nil {
		t.Fatal("mismatched seed lengths accepted")
	}
	if err := s.Seed([]int{3, 3}, [][]float32{{1, 2, 3}, {4, 5, 6}}); err == nil {
		t.Fatal("duplicate seed ids accepted")
	}
	if err := s.Seed([]int{-2}, [][]float32{{1, 2, 3}}); err == nil {
		t.Fatal("negative seed id accepted")
	}
	if _, err := s.Upsert(1, []float32{1, 2, 3}); err != nil {
		t.Fatalf("valid upsert rejected: %v", err)
	}
	if err := s.Seed([]int{0}, [][]float32{{1, 2, 3}}); err == nil {
		t.Fatal("Seed after mutation accepted")
	}

	f := NewFixed(2, vec.Manhattan, Options{Vaults: 1})
	if _, err := f.Upsert(0, []int32{1}); err == nil {
		t.Fatal("short fixed row accepted")
	}
	b := NewBinary(64, Options{Vaults: 1})
	if _, err := b.Upsert(0, vec.NewBinary(32)); err == nil {
		t.Fatal("narrow code accepted")
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewFloat dim", func() { NewFloat(0, vec.Euclidean, Options{}) })
	mustPanic("NewFloat hamming", func() { NewFloat(4, vec.HammingMetric, Options{}) })
	mustPanic("NewFixed dim", func() { NewFixed(0, vec.Euclidean, Options{}) })
	mustPanic("NewFixed cosine", func() { NewFixed(4, vec.Cosine, Options{}) })
	mustPanic("NewBinary bits", func() { NewBinary(0, Options{}) })
}

func TestOptionsFill(t *testing.T) {
	o := Options{}.fill()
	if o.Vaults <= 0 || o.Vaults > knn.MaxVaults {
		t.Fatalf("default vaults = %d", o.Vaults)
	}
	if o.SerialBelow != knn.DefaultSerialThreshold {
		t.Fatalf("default serial threshold = %d", o.SerialBelow)
	}
	if o.GarbageThreshold != 0.3 || o.RebalanceFactor != 2.0 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{Vaults: 1000, SerialBelow: -5, GarbageThreshold: 0.5, RebalanceFactor: 3}.fill()
	if o.Vaults != knn.MaxVaults || o.SerialBelow != 0 {
		t.Fatalf("clamped = %+v", o)
	}
	if o.GarbageThreshold != 0.5 || o.RebalanceFactor != 3 {
		t.Fatalf("explicit values lost: %+v", o)
	}
}

func TestSurvivors(t *testing.T) {
	s := NewFloat(1, vec.Euclidean, Options{Vaults: 3})
	for i := 0; i < 10; i++ {
		if _, err := s.Upsert(i*7, []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(7)
	s.Delete(21)
	ids, rows := s.Survivors()
	if len(ids) != 8 || len(rows) != 8 {
		t.Fatalf("survivors: %d ids, %d rows", len(ids), len(rows))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not strictly ascending: %v", ids)
		}
	}
	for i, id := range ids {
		if int(rows[i][0])*7 != id {
			t.Fatalf("row/id pairing broken at %d: id=%d row=%v", i, id, rows[i])
		}
	}
}

func TestSearchBatchMatchesSearch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n, dim = 400, 4
	s := NewFloat(dim, vec.Euclidean, Options{Vaults: 4, SerialBelow: -1})
	rows := tieRows(r, n, dim)
	if err := s.Seed(seqIDs(n), rows); err != nil {
		t.Fatal(err)
	}
	for _, nq := range []int{1, 3, 16} {
		qs := randRows(r, nq, dim)
		got, _ := s.SearchBatch(qs, 5, nil)
		for i, q := range qs {
			want := s.Search(q, 5)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("nq=%d query %d: %v != %v", nq, i, got[i], want)
			}
		}
	}
	if out, _ := s.SearchBatch(nil, 5, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %v", out)
	}
}

func TestCompactReclaimsTombstones(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n, dim = 200, 4
	s := NewFloat(dim, vec.Euclidean, Options{Vaults: 4, SerialBelow: -1, GarbageThreshold: 0.25})
	rows := tieRows(r, n, dim)
	if err := s.Seed(seqIDs(n), rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 2 {
		s.Delete(i)
	}
	if s.Dead() != n/2 {
		t.Fatalf("dead = %d, want %d", s.Dead(), n/2)
	}
	seqBefore := s.Seq()
	ids, survivors := s.Survivors()
	q := rows[1]
	before := s.Search(q, 17)

	var hook CompactResult
	s.OnCompact = func(r CompactResult) { hook = r }
	res := s.CompactOnce()
	if !res.Changed() || res.RowsDropped == 0 {
		t.Fatalf("compaction was a no-op: %+v", res)
	}
	if hook != res {
		t.Fatalf("OnCompact saw %+v, CompactOnce returned %+v", hook, res)
	}
	if s.Dead() != 0 {
		t.Fatalf("dead after full compaction = %d", s.Dead())
	}
	if s.Seq() != seqBefore {
		t.Fatalf("compaction moved seq %d -> %d", seqBefore, s.Seq())
	}
	after := s.Search(q, 17)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("results changed across compaction:\n%v\n%v", before, after)
	}
	if want := oracleFloat(vec.Euclidean, ids, survivors, q, 17); !reflect.DeepEqual(after, want) {
		t.Fatalf("post-compaction results diverge from oracle")
	}
	// Mutations after compaction still index correctly.
	if _, err := s.Upsert(1, []float32{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if row, ok := s.Get(1); !ok || row[0] != 9 {
		t.Fatalf("Get(1) after post-compaction upsert = %v %v", row, ok)
	}
	// A second pass with nothing to do reports unchanged.
	if res := s.CompactOnce(); res.Changed() {
		t.Fatalf("idle compaction claimed work: %+v", res)
	}
}

func TestCompactRebalancesSkew(t *testing.T) {
	// Seed everything, then delete the whole top half: the surviving
	// rows all live in the low vaults, so the largest vault far exceeds
	// the mean and a rebalance must trigger.
	const n, dim = 256, 2
	r := rand.New(rand.NewSource(5))
	s := NewFloat(dim, vec.Euclidean, Options{Vaults: 4, SerialBelow: -1, GarbageThreshold: 0.99, RebalanceFactor: 1.5})
	rows := tieRows(r, n, dim)
	if err := s.Seed(seqIDs(n), rows); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		s.Delete(i)
	}
	q := rows[0]
	before := s.Search(q, 9)
	res := s.CompactOnce()
	if !res.Rebalanced {
		t.Fatalf("expected a rebalance: %+v", res)
	}
	if s.Dead() != 0 {
		t.Fatalf("rebalance left %d tombstones", s.Dead())
	}
	st := s.Stats()
	if st.Rebalances != 1 {
		t.Fatalf("stats.Rebalances = %d", st.Rebalances)
	}
	// Physical rows are now even across vaults.
	snap := s.snap.Load()
	for v := range snap.vaults {
		if got := len(snap.vaults[v].ids); got > (n/2+3)/4+1 {
			t.Fatalf("vault %d holds %d rows after rebalance", v, got)
		}
	}
	after := s.Search(q, 9)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rebalance changed results:\n%v\n%v", before, after)
	}
}

func TestCompactorLifecycle(t *testing.T) {
	s := NewFloat(2, vec.Euclidean, Options{Vaults: 2, SerialBelow: -1, GarbageThreshold: 0.01})
	for i := 0; i < 64; i++ {
		if _, err := s.Upsert(i, []float32{float32(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	s.StartCompactor(time.Millisecond)
	s.StartCompactor(time.Millisecond) // second call is a no-op
	for i := 0; i < 32; i++ {
		s.Delete(i)
	}
	deadline := time.After(5 * time.Second)
	for s.Dead() > 0 {
		select {
		case <-deadline:
			t.Fatalf("compactor never reclaimed %d tombstones", s.Dead())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Upsert(100, []float32{1, 1}); err != nil {
		t.Fatalf("store unusable after Close: %v", err)
	}

	// Close without StartCompactor must not hang.
	s2 := NewFloat(2, vec.Euclidean, Options{Vaults: 1})
	done := make(chan struct{})
	go func() { s2.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close without StartCompactor hung")
	}
}

func TestFixedAndBinaryStores(t *testing.T) {
	// Fixed-point store matches the fixed engine's distance kernel.
	f := NewFixed(2, vec.Euclidean, Options{Vaults: 1})
	if _, err := f.Upsert(1, []int32{vec.ToFixed(1), 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Upsert(2, []int32{vec.ToFixed(3), 0}); err != nil {
		t.Fatal(err)
	}
	res := f.Search([]int32{vec.ToFixed(1), 0}, 1)
	if len(res) != 1 || res[0].ID != 1 || res[0].Dist != 0 {
		t.Fatalf("fixed search = %v", res)
	}
	fm := NewFixed(2, vec.Manhattan, Options{Vaults: 1})
	a, b := []int32{vec.ToFixed(1), 0}, []int32{vec.ToFixed(3), 0}
	fm.Upsert(1, b)
	got := fm.Search(a, 1)
	if want := float64(vec.L1Fixed(a, b)); got[0].Dist != want {
		t.Fatalf("fixed manhattan dist = %v, want %v", got[0].Dist, want)
	}

	// Binary store orders by Hamming distance with id tie-break.
	bs := NewBinary(8, Options{Vaults: 1})
	zero := vec.NewBinary(8)
	one := vec.NewBinary(8)
	one.Set(0, true)
	bs.Upsert(5, zero)
	bs.Upsert(3, zero) // identical code, smaller id
	bs.Upsert(9, one)
	res = bs.Search(zero, 3)
	if len(res) != 3 || res[0].ID != 3 || res[1].ID != 5 || res[2].ID != 9 {
		t.Fatalf("binary search order = %v", res)
	}
	if res[2].Dist != 1 {
		t.Fatalf("hamming dist = %v", res[2].Dist)
	}
}

func TestAccessorsAndKZero(t *testing.T) {
	s := NewFloat(4, vec.Euclidean, Options{Vaults: 2})
	if s.Vaults() != 2 || s.Dim() != 4 {
		t.Fatalf("Vaults=%d Dim=%d", s.Vaults(), s.Dim())
	}
	if res := s.Search(make([]float32, 4), 0); res != nil {
		t.Fatalf("k=0 returned %v", res)
	}
	if res := s.Search(make([]float32, 4), 3); len(res) != 0 {
		t.Fatalf("empty store returned %v", res)
	}
}
