package kdtree

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
)

// TestGlobalCutDims exercises the Section VI-B device-assisted build
// path: cut dimensions supplied up front instead of per-node variance
// estimation.
func TestGlobalCutDims(t *testing.T) {
	ds := testDataset()
	p := DefaultParams()
	// All dimensions offered: quality should be comparable to the
	// standard build.
	dims := make([]int, ds.Dim())
	for i := range dims {
		dims[i] = i
	}
	p.GlobalCutDims = dims
	f := Build(ds.Data, ds.Dim(), p)
	f.Checks = 1024
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	var recall float64
	for i, q := range ds.Queries {
		recall += dataset.Recall(gt[i], f.Search(q, 5))
	}
	recall /= float64(len(ds.Queries))
	if recall < 0.8 {
		t.Fatalf("global-cut forest recall = %v", recall)
	}
}

func TestGlobalCutDimsSubset(t *testing.T) {
	ds := testDataset()
	p := DefaultParams()
	p.GlobalCutDims = []int{0, 3, 7, 11} // a plausible top-variance list
	f := Build(ds.Data, ds.Dim(), p)
	f.Checks = ds.N()
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries[:10], 5)
	var recall float64
	for i, q := range ds.Queries[:10] {
		recall += dataset.Recall(gt[i], f.Search(q, 5))
	}
	recall /= 10
	// Exhaustive checks recover full recall regardless of cut quality.
	if recall < 0.99 {
		t.Fatalf("subset-cut exhaustive recall = %v", recall)
	}
}

func TestGlobalCutDegenerate(t *testing.T) {
	// Constant data on the offered dimension: the builder must
	// terminate with leaves rather than recursing forever.
	data := make([]float32, 200*4)
	for i := 0; i < 200; i++ {
		data[i*4+2] = float32(i) // only dim 2 varies
	}
	p := DefaultParams()
	p.GlobalCutDims = []int{0} // constant dimension
	f := Build(data, 4, p)
	f.Checks = 200
	got := f.Search([]float32{0, 0, 50, 0}, 3)
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
}
