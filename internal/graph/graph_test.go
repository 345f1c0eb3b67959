package graph

import (
	"math/rand"
	"sync"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/topk"
)

func testSpec(n, dim, queries int) dataset.Spec {
	return dataset.Spec{
		Name: "graph-test", N: n, Dim: dim, NumQueries: queries,
		K: 10, Clusters: 48, ClusterStd: 0.30, Seed: 0x6a91,
	}
}

func TestBuildDeterminism(t *testing.T) {
	ds := dataset.Generate(testSpec(800, 16, 1))
	p := Params{M: 8, EfConstruction: 40, Seed: 7}
	a := Build(ds.Data, ds.Dim(), p)
	b := Build(ds.Data, ds.Dim(), p)
	if a.Entry() != b.Entry() || a.MaxLayer() != b.MaxLayer() {
		t.Fatalf("entry/maxLayer differ: (%d,%d) vs (%d,%d)",
			a.Entry(), a.MaxLayer(), b.Entry(), b.MaxLayer())
	}
	if a.Edges() != b.Edges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Edges(), b.Edges())
	}
	for i := 0; i < a.N(); i++ {
		if a.Level(i) != b.Level(i) {
			t.Fatalf("node %d level differs: %d vs %d", i, a.Level(i), b.Level(i))
		}
		for l := 0; l <= a.Level(i); l++ {
			fa, fb := a.Neighbors(i, l), b.Neighbors(i, l)
			if len(fa) != len(fb) {
				t.Fatalf("node %d layer %d degree differs: %d vs %d", i, l, len(fa), len(fb))
			}
			for j := range fa {
				if fa[j] != fb[j] {
					t.Fatalf("node %d layer %d neighbor %d differs: %d vs %d",
						i, l, j, fa[j], fb[j])
				}
			}
		}
	}
	// A different seed reassigns levels, so the tower shape changes.
	c := Build(ds.Data, ds.Dim(), Params{M: 8, EfConstruction: 40, Seed: 8})
	same := c.Edges() == a.Edges()
	for i := 0; same && i < a.N(); i++ {
		same = a.Level(i) == c.Level(i)
	}
	if same {
		t.Fatal("different seeds produced identical level assignment and edge count")
	}
}

func TestDegreeBounds(t *testing.T) {
	ds := dataset.Generate(testSpec(1200, 12, 1))
	p := Params{M: 6, EfConstruction: 32, Seed: 3}
	g := Build(ds.Data, ds.Dim(), p)
	for i := 0; i < g.N(); i++ {
		for l := 0; l <= g.Level(i); l++ {
			limit := p.M
			if l == 0 {
				limit = 2 * p.M
			}
			if d := len(g.Neighbors(i, l)); d > limit {
				t.Fatalf("node %d layer %d degree %d exceeds cap %d", i, l, d, limit)
			}
		}
	}
	if g.Neighbors(0, g.Level(0)+1) != nil {
		t.Fatal("Neighbors above a node's level should be nil")
	}
	if g.Neighbors(0, -1) != nil {
		t.Fatal("Neighbors at a negative layer should be nil")
	}
	if g.M() != p.M || g.Dim() != ds.Dim() {
		t.Fatalf("accessors: M=%d Dim=%d", g.M(), g.Dim())
	}
}

// TestRecall pins the issue's bar: recall@10 >= 0.9 at some efSearch on
// a 10k synthetic set against the linear-scan oracle.
func TestRecall(t *testing.T) {
	ds := dataset.Generate(testSpec(10000, 32, 50))
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 10)
	g := Build(ds.Data, ds.Dim(), Params{M: 12, EfConstruction: 64, Seed: 1})
	sum := 0.0
	var st knn.Stats
	for i, q := range ds.Queries {
		res, s := g.SearchEfStats(q, 10, 128)
		st.Add(s)
		sum += dataset.Recall(gt[i], res)
	}
	recall := sum / float64(len(ds.Queries))
	if recall < 0.9 {
		t.Fatalf("recall@10 = %.3f at ef=128, want >= 0.9", recall)
	}
	if st.DistEvals <= 0 || st.Dims != st.DistEvals*ds.Dim() ||
		st.Hops <= 0 || st.HeapOps <= 0 || st.NeighborFetches <= 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	// The traversal must do far less distance work than a linear scan.
	if st.DistEvals >= len(ds.Queries)*ds.N() {
		t.Fatalf("graph search did %d dist evals, no better than linear", st.DistEvals)
	}
}

// TestSerialVsConcurrent pins that concurrent searches of one built
// index return results bit-identical to serial searches.
func TestSerialVsConcurrent(t *testing.T) {
	ds := dataset.Generate(testSpec(3000, 24, 64))
	g := Build(ds.Data, ds.Dim(), DefaultParams())
	serial := make([][]topk.Result, len(ds.Queries))
	for i, q := range ds.Queries {
		serial[i] = g.Search(q, 10)
	}
	conc := make([][]topk.Result, len(ds.Queries))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ds.Queries); i += 8 {
				conc[i] = g.Search(ds.Queries[i], 10)
			}
		}(w)
	}
	wg.Wait()
	for i := range serial {
		if len(serial[i]) != len(conc[i]) {
			t.Fatalf("query %d: result lengths differ", i)
		}
		for j := range serial[i] {
			if serial[i][j] != conc[i][j] {
				t.Fatalf("query %d rank %d: serial %+v != concurrent %+v",
					i, j, serial[i][j], conc[i][j])
			}
		}
	}
}

func TestResultOrderAndEfClamp(t *testing.T) {
	ds := dataset.Generate(testSpec(500, 8, 4))
	g := Build(ds.Data, ds.Dim(), Params{M: 8, EfConstruction: 32, Seed: 2})
	q := ds.Queries[0]
	res := g.SearchEf(q, 10, 1) // ef < k must clamp up to k
	if len(res) != 10 {
		t.Fatalf("ef<k returned %d results, want 10", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist ||
			(res[i].Dist == res[i-1].Dist && res[i].ID <= res[i-1].ID) {
			t.Fatalf("results not in total order at %d: %+v", i, res)
		}
	}
	// SearchEf must not disturb the index's default knob.
	if g.EfSearch != 64 {
		t.Fatalf("EfSearch mutated to %d", g.EfSearch)
	}
}

func TestSmallAndEdgeCases(t *testing.T) {
	one := Build([]float32{1, 2}, 2, Params{Seed: 1})
	res := one.Search([]float32{0, 0}, 5)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("singleton index: %+v", res)
	}
	small := Build([]float32{0, 0, 1, 1, 2, 2}, 2, Params{M: 2, Seed: 1})
	res = small.Search([]float32{0.9, 0.9}, 10) // k > n
	if len(res) != 3 || res[0].ID != 1 {
		t.Fatalf("k>n: %+v", res)
	}
	if small.N() != 3 {
		t.Fatalf("N() = %d", small.N())
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("ragged data", func() { Build([]float32{1, 2, 3}, 2, Params{}) })
	mustPanic("zero dim", func() { Build(nil, 0, Params{}) })
	mustPanic("empty data", func() { Build(nil, 4, Params{}) })
	mustPanic("bad query dim", func() { small.Search([]float32{1}, 1) })
	mustPanic("k=0", func() { small.Search([]float32{1, 1}, 0) })
}

func TestParamsFillAndM1(t *testing.T) {
	p := Params{}.fill()
	if p != DefaultParams() {
		t.Fatalf("fill() = %+v, want defaults", p)
	}
	// M=1 exercises the log(1)=0 guard; the index must still answer.
	g := Build([]float32{0, 1, 2, 3}, 1, Params{M: 1, EfConstruction: 4, Seed: 5})
	res := g.Search([]float32{2.1}, 2)
	if len(res) != 2 {
		t.Fatalf("M=1 search returned %d results", len(res))
	}
}

func TestSearchSpans(t *testing.T) {
	ds := dataset.Generate(testSpec(2000, 16, 1))
	g := Build(ds.Data, ds.Dim(), DefaultParams())
	tracer := obs.NewTracer(0, 8)
	tr := tracer.Trace("graph-query", true)
	_, st := g.SearchStatsSpan(ds.Queries[0], 10, tr.Root())
	data := tracer.Finish(tr)
	descend := data.Root.Find("descend")
	base := data.Root.Find("base")
	if descend == nil || base == nil {
		t.Fatalf("missing traversal spans: %+v", data.Root)
	}
	dh, _ := descend.Tags["hops"].(int)
	bh, _ := base.Tags["hops"].(int)
	if dh+bh != st.Hops {
		t.Fatalf("span hop tags %d+%d != stats hops %d", dh, bh, st.Hops)
	}
	de, _ := descend.Tags["dist_evals"].(int)
	be, _ := base.Tags["dist_evals"].(int)
	if de+be != st.DistEvals {
		t.Fatalf("span dist_evals tags %d+%d != stats %d", de, be, st.DistEvals)
	}
	if base.Tags["ef"] != g.EfSearch {
		t.Fatalf("base span ef tag = %v", base.Tags["ef"])
	}
}

// TestSearchAllocs verifies the pooled scratch keeps the hot path
// allocation-free apart from the returned result slice.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation defeats sync.Pool reuse")
	}
	ds := dataset.Generate(testSpec(2000, 16, 4))
	g := Build(ds.Data, ds.Dim(), DefaultParams())
	q := ds.Queries[0]
	g.Search(q, 10) // warm the pool and grow the heaps
	allocs := testing.AllocsPerRun(50, func() { g.Search(q, 10) })
	if allocs > 2 {
		t.Fatalf("Search allocates %.1f objects/op, want <= 2", allocs)
	}
}

func TestEpochWrap(t *testing.T) {
	g := Build([]float32{0, 1, 2, 3, 4, 5, 6, 7}, 1, Params{M: 2, Seed: 9})
	sc := g.getScratch()
	sc.epoch = ^uint32(0) - 1
	for i := range sc.visited {
		sc.visited[i] = sc.epoch // poison with soon-to-wrap marks
	}
	g.putScratch(sc)
	for i := 0; i < 3; i++ { // crosses the wrap; stale marks must clear
		res := g.Search([]float32{3.4}, 2)
		if len(res) != 2 || res[0].ID != 3 {
			t.Fatalf("post-wrap search %d: %+v", i, res)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	ds := dataset.Generate(testSpec(20000, 64, 16))
	g := Build(ds.Data, ds.Dim(), DefaultParams())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Search(ds.Queries[rng.Intn(len(ds.Queries))], 10)
	}
}

func BenchmarkBuild(b *testing.B) {
	ds := dataset.Generate(testSpec(5000, 32, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds.Data, ds.Dim(), DefaultParams())
	}
}
