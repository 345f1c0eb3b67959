package kdtree

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
)

func testDataset() *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "t", N: 2000, Dim: 16, NumQueries: 30, K: 5,
		Clusters: 16, ClusterStd: 0.25, Seed: 5,
	})
}

func TestBuildAndExhaustiveSearch(t *testing.T) {
	ds := testDataset()
	f := Build(ds.Data, ds.Dim(), DefaultParams())
	f.Checks = ds.N() // allow scanning everything
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	var recall float64
	for i, q := range ds.Queries {
		recall += dataset.Recall(gt[i], f.Search(q, 5))
	}
	recall /= float64(len(ds.Queries))
	if recall < 0.999 {
		t.Fatalf("exhaustive kd-tree recall = %v, want ~1", recall)
	}
}

func TestAccuracyThroughputTradeoff(t *testing.T) {
	ds := testDataset()
	f := Build(ds.Data, ds.Dim(), DefaultParams())
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)

	recallAt := func(checks int) (recall float64, evals int) {
		f.Checks = checks
		for i, q := range ds.Queries {
			res, st := f.SearchStats(q, 5)
			recall += dataset.Recall(gt[i], res)
			evals += st.DistEvals
		}
		return recall / float64(len(ds.Queries)), evals
	}

	low, lowEvals := recallAt(32)
	high, highEvals := recallAt(1024)
	if highEvals <= lowEvals {
		t.Fatalf("checks knob did not increase work: %d vs %d", lowEvals, highEvals)
	}
	if high < low {
		t.Fatalf("recall decreased with more checks: %v -> %v", low, high)
	}
	if high < 0.8 {
		t.Fatalf("high-checks recall too low: %v", high)
	}
	if lowEvals >= ds.N()*len(ds.Queries) {
		t.Fatalf("low-checks search degenerated to linear scan")
	}
}

func TestChecksBoundRespected(t *testing.T) {
	ds := testDataset()
	f := Build(ds.Data, ds.Dim(), DefaultParams())
	f.Checks = 100
	for _, q := range ds.Queries[:5] {
		_, st := f.SearchStats(q, 5)
		// The bound is approximate (a descend may finish a leaf), so
		// allow one leaf of slop per tree.
		slack := f.NumTrees() * DefaultParams().LeafSize * 2
		if st.DistEvals > f.Checks+slack {
			t.Fatalf("DistEvals %d exceeds checks %d by more than slack", st.DistEvals, f.Checks)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	ds := testDataset()
	a := Build(ds.Data, ds.Dim(), DefaultParams())
	b := Build(ds.Data, ds.Dim(), DefaultParams())
	q := ds.Queries[0]
	ra := a.Search(q, 5)
	rb := b.Search(q, 5)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("nondeterministic build at %d", i)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := testDataset()
	f := Build(ds.Data, ds.Dim(), DefaultParams())
	f.Checks = 200
	_, st := f.SearchStats(ds.Queries[0], 5)
	if st.DistEvals == 0 || st.Dims == 0 || st.NodeVisits == 0 || st.LeafScans == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Dims != st.DistEvals*ds.Dim() {
		t.Fatalf("Dims %d inconsistent with DistEvals %d", st.Dims, st.DistEvals)
	}
}

func TestSmallDataset(t *testing.T) {
	data := []float32{0, 0, 1, 1, 2, 2, 3, 3}
	f := Build(data, 2, Params{NumTrees: 2, LeafSize: 2, TopDims: 2, Seed: 1})
	f.Checks = 4
	got := f.Search([]float32{0.1, 0.1}, 1)
	if len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("nearest = %+v", got)
	}
}

func TestIdenticalPoints(t *testing.T) {
	// All-identical data is fully degenerate: build must terminate and
	// return a single leaf per tree.
	data := make([]float32, 100*4)
	f := Build(data, 4, DefaultParams())
	f.Checks = 100
	got := f.Search(make([]float32, 4), 3)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if r.Dist != 0 {
			t.Fatalf("nonzero distance on identical data: %+v", r)
		}
	}
}

func TestBuildPanicsOnRaggedData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(make([]float32, 10), 3, DefaultParams())
}

func TestMultipleTreesImproveRecall(t *testing.T) {
	ds := testDataset()
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	meanRecall := func(trees, checks int) float64 {
		p := DefaultParams()
		p.NumTrees = trees
		f := Build(ds.Data, ds.Dim(), p)
		f.Checks = checks
		var r float64
		for i, q := range ds.Queries {
			r += dataset.Recall(gt[i], f.Search(q, 5))
		}
		return r / float64(len(ds.Queries))
	}
	one := meanRecall(1, 256)
	four := meanRecall(4, 256)
	if four+0.05 < one {
		t.Fatalf("4 trees (%v) markedly worse than 1 tree (%v) at equal checks", four, one)
	}
}
