package kmeans

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
)

func testDataset() *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "t", N: 2000, Dim: 16, NumQueries: 30, K: 5,
		Clusters: 16, ClusterStd: 0.25, Seed: 6,
	})
}

func TestExhaustiveSearchRecall(t *testing.T) {
	ds := testDataset()
	tr := Build(ds.Data, ds.Dim(), DefaultParams())
	tr.Checks = ds.N()
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	var recall float64
	for i, q := range ds.Queries {
		recall += dataset.Recall(gt[i], tr.Search(q, 5))
	}
	recall /= float64(len(ds.Queries))
	if recall < 0.999 {
		t.Fatalf("exhaustive k-means recall = %v, want ~1", recall)
	}
}

func TestLeavesPartitionDataset(t *testing.T) {
	ds := testDataset()
	tr := Build(ds.Data, ds.Dim(), DefaultParams())
	// Every id appears exactly once across the permuted id array.
	seen := make(map[int32]int)
	for _, id := range tr.ids {
		seen[id]++
	}
	if len(seen) != ds.N() {
		t.Fatalf("ids cover %d of %d vectors", len(seen), ds.N())
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("id %d appears %d times", id, c)
		}
	}
	// Leaf ranges must tile [0, n) without overlap.
	covered := 0
	for _, n := range tr.nodes {
		if len(n.children) == 0 {
			covered += int(n.end - n.start)
		}
	}
	// Leaves can nest under discarded degenerate parents only if they
	// are reachable; count reachable leaves instead.
	covered = 0
	var walk func(int32)
	walk = func(ni int32) {
		n := &tr.nodes[ni]
		if len(n.children) == 0 {
			covered += int(n.end - n.start)
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(0)
	if covered != ds.N() {
		t.Fatalf("reachable leaves cover %d of %d", covered, ds.N())
	}
}

func TestAccuracyThroughputTradeoff(t *testing.T) {
	ds := testDataset()
	tr := Build(ds.Data, ds.Dim(), DefaultParams())
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	recallAt := func(checks int) (float64, int) {
		tr.Checks = checks
		var recall float64
		evals := 0
		for i, q := range ds.Queries {
			res, st := tr.SearchStats(q, 5)
			recall += dataset.Recall(gt[i], res)
			evals += st.DistEvals
		}
		return recall / float64(len(ds.Queries)), evals
	}
	low, lowEvals := recallAt(64)
	high, highEvals := recallAt(1200)
	if highEvals <= lowEvals {
		t.Fatalf("checks knob did not increase work")
	}
	if high < low {
		t.Fatalf("recall fell with more checks: %v -> %v", low, high)
	}
	if high < 0.85 {
		t.Fatalf("high-checks recall = %v, too low", high)
	}
}

func TestDeterministicBuild(t *testing.T) {
	ds := testDataset()
	a := Build(ds.Data, ds.Dim(), DefaultParams())
	b := Build(ds.Data, ds.Dim(), DefaultParams())
	ra := a.Search(ds.Queries[0], 5)
	rb := b.Search(ds.Queries[0], 5)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("nondeterministic build")
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := testDataset()
	tr := Build(ds.Data, ds.Dim(), DefaultParams())
	tr.Checks = 300
	_, st := tr.SearchStats(ds.Queries[0], 5)
	if st.DistEvals == 0 || st.CentroidEvals == 0 || st.LeafScans == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestIdenticalPoints(t *testing.T) {
	data := make([]float32, 200*4)
	tr := Build(data, 4, DefaultParams())
	tr.Checks = 50
	got := tr.Search(make([]float32, 4), 3)
	if len(got) != 3 {
		t.Fatalf("got %d results on degenerate data", len(got))
	}
}

func TestTinyDataset(t *testing.T) {
	data := []float32{0, 0, 10, 10}
	tr := Build(data, 2, DefaultParams())
	got := tr.Search([]float32{9, 9}, 1)
	if got[0].ID != 1 {
		t.Fatalf("nearest = %+v", got[0])
	}
}

func TestBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(make([]float32, 7), 2, DefaultParams())
}
