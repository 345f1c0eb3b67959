package ssamdev

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/vec"
)

func TestTreeIndexExhaustiveRecall(t *testing.T) {
	ds := smallDataset(800, 16)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKDTreeIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	// Budget large enough to scan every PU's whole subtree: exact.
	var recall float64
	for i, q := range ds.Queries {
		res, st, err := ti.Search(q, 5, ds.N())
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles == 0 || st.PUs == 0 {
			t.Fatalf("no stats: %+v", st)
		}
		recall += dataset.Recall(gt[i], res)
	}
	recall /= float64(len(ds.Queries))
	if recall < 0.9 {
		t.Fatalf("exhaustive on-device tree recall = %v", recall)
	}
}

func TestTreeIndexBudgetTradeoff(t *testing.T) {
	ds := smallDataset(1200, 16)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKDTreeIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)

	eval := func(checks int) (recall float64, cycles uint64) {
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
	lowR, lowC := eval(2)
	highR, highC := eval(64)
	if highC <= lowC {
		t.Fatalf("budget knob did not increase work: %d vs %d cycles", lowC, highC)
	}
	if highR < lowR-0.02 {
		t.Fatalf("recall fell with bigger budget: %v -> %v", lowR, highR)
	}
	if highR < 0.8 {
		t.Fatalf("high-budget recall = %v", highR)
	}
}

func TestTreeIndexSelfQuery(t *testing.T) {
	ds := smallDataset(600, 12)
	dev, err := NewFloat(DefaultConfig(2), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKDTreeIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	// A database vector descends to its own bucket: found with a tiny
	// budget.
	for _, i := range []int{5, 300, 599} {
		res, _, err := ti.Search(ds.Row(i), 1, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != i {
			t.Fatalf("self query %d -> %v", i, res)
		}
	}
}

func TestTreeIndexCheaperThanLinear(t *testing.T) {
	// Pin one PU per vault so each shard is big enough for pruning to
	// pay for the traversal overhead.
	cfg := DefaultConfig(4)
	cfg.PUsPerVault = 1
	ds := smallDataset(4000, 16)
	dev, err := NewFloat(cfg, ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKDTreeIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[0]
	_, linSt, err := dev.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, treeSt, err := ti.Search(q, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if treeSt.Cycles >= linSt.Cycles {
		t.Fatalf("bounded tree search (%d cycles) not cheaper than linear scan (%d)",
			treeSt.Cycles, linSt.Cycles)
	}
}

func TestTreeIndexErrors(t *testing.T) {
	ds := smallDataset(200, 8)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKDTreeIndex(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ti.Search(make([]float32, 3), 5, 10); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
	if _, _, err := ti.Search(ds.Queries[0], 5, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
	// Manhattan device cannot host the Euclidean traversal kernel.
	mdev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdev.BuildKDTreeIndex(8); err == nil {
		t.Fatal("tree index on Manhattan device accepted")
	}
}

func TestTreeIndexStackDepthWithinHardware(t *testing.T) {
	// A deep tree (leaf size 1) must still traverse within the 64-deep
	// hardware stack on small shards.
	ds := smallDataset(700, 8)
	dev, err := NewFloat(DefaultConfig(2), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	ti, err := dev.BuildKDTreeIndex(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ti.Search(ds.Queries[0], 3, 4); err != nil {
		t.Fatalf("deep-tree traversal failed: %v", err)
	}
}
