package ssamdev

import (
	"reflect"
	"runtime"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/vec"
)

func TestKMTreeExhaustiveRecall(t *testing.T) {
	ds := smallDataset(900, 16)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKMTreeIndex(4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5, 1)
	var recall float64
	for i, q := range ds.Queries {
		res, st, err := ti.Search(q, 5, ds.N())
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles == 0 {
			t.Fatal("no cycles")
		}
		recall += dataset.Recall(gt[i], res)
	}
	recall /= float64(len(ds.Queries))
	if recall < 0.9 {
		t.Fatalf("exhaustive on-device k-means tree recall = %v", recall)
	}
}

func TestKMTreeBudgetTradeoff(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PUsPerVault = 1
	ds := smallDataset(4000, 16)
	dev, err := NewFloat(cfg, ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKMTreeIndex(4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5, 1)
	eval := func(checks int) (float64, uint64) {
		var recall float64
		var cycles uint64
		for i, q := range ds.Queries {
			res, st, err := ti.Search(q, 5, checks)
			if err != nil {
				t.Fatal(err)
			}
			recall += dataset.Recall(gt[i], res)
			cycles += st.Cycles
		}
		return recall / float64(len(ds.Queries)), cycles
	}
	lowR, lowC := eval(8)
	highR, highC := eval(80)
	if highC <= lowC {
		t.Fatalf("budget knob did not increase work: %d vs %d", lowC, highC)
	}
	if highR < lowR-0.02 {
		t.Fatalf("recall fell with budget: %v -> %v", lowR, highR)
	}
	if highR < 0.75 {
		t.Fatalf("high-budget recall = %v", highR)
	}
	// Bounded search beats the linear scan on big shards.
	var linCycles uint64
	for _, q := range ds.Queries {
		_, st, err := dev.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		linCycles += st.Cycles
	}
	if lowC >= linCycles {
		t.Fatalf("bounded tree search (%d) not cheaper than linear (%d)", lowC, linCycles)
	}
}

func TestKMTreeSelfQuery(t *testing.T) {
	ds := smallDataset(700, 12)
	dev, err := NewFloat(DefaultConfig(2), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKMTreeIndex(4, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 700; i += 70 {
		res, _, err := ti.Search(ds.Row(i), 1, 24)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 && res[0].ID == i && res[0].Dist == 0 {
			hits++
		}
	}
	// Greedy descent can occasionally route a boundary point away from
	// its own bucket; the vast majority must land.
	if hits < 8 {
		t.Fatalf("self-query hits = %d/10", hits)
	}
}

func TestKMTreeErrors(t *testing.T) {
	ds := smallDataset(200, 8)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.BuildKMTreeIndex(1, 8, 1); err == nil {
		t.Fatal("branching=1 accepted")
	}
	mdev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdev.BuildKMTreeIndex(4, 8, 1); err == nil {
		t.Fatal("k-means tree on Manhattan device accepted")
	}
	ti, err := dev.BuildKMTreeIndex(4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ti.Search(make([]float32, 2), 3, 8); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
	if _, _, err := ti.Search(ds.Queries[0], 3, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

// TestKMTreeProgramCacheRace pins the kernel cache to one goroutine:
// the per-CentBase programs must be resolved before the PU fan-out, not
// from inside its workers. GOMAXPROCS is raised for the test's duration
// so runParallel really runs several workers (and the race detector
// trips) even on a 1-CPU box; each fresh checks value forces cache
// misses, the racy path.
func TestKMTreeProgramCacheRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ds := smallDataset(900, 16)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKMTreeIndex(4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ti.Search(ds.Queries[0], 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	for checks := 17; checks < 25; checks++ {
		if _, _, err := ti.Search(ds.Queries[0], 5, checks); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := ti.Search(ds.Queries[0], 5, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached kernel changed the answer: %v vs %v", got, want)
	}
}
