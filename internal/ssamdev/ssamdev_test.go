package ssamdev

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/sim"
	"ssam/internal/vec"
)

func smallDataset(n, dim int) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "dev", N: n, Dim: dim, NumQueries: 5, K: 8,
		Clusters: 8, ClusterStd: 0.3, Seed: 17,
	})
}

func TestDeviceMatchesHostEuclidean(t *testing.T) {
	ds := smallDataset(600, 24)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 8)
	var recall float64
	for i, q := range ds.Queries {
		res, st, err := dev.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 8 {
			t.Fatalf("got %d results", len(res))
		}
		if st.Cycles == 0 || st.Seconds <= 0 {
			t.Fatalf("no cycles charged: %+v", st)
		}
		recall += dataset.Recall(gt[i], res)
	}
	recall /= float64(len(ds.Queries))
	if recall < 0.9 {
		t.Fatalf("device recall vs float host = %v, want >= 0.9", recall)
	}
}

func TestDeviceCoversWholeDatabase(t *testing.T) {
	ds := smallDataset(333, 8) // odd size: uneven shards
	dev, err := NewFloat(DefaultConfig(2), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	total := 0
	for _, sl := range dev.slices {
		for _, id := range sl.ids {
			if seen[id] {
				t.Fatalf("id %d in two slices", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != ds.N() {
		t.Fatalf("slices cover %d of %d vectors", total, ds.N())
	}
}

func TestDeviceSelfQuery(t *testing.T) {
	ds := smallDataset(400, 16)
	dev, err := NewFloat(DefaultConfig(8), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 199, 399} {
		res, _, err := dev.Search(ds.Row(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].ID != i {
			t.Fatalf("self query %d returned %d", i, res[0].ID)
		}
	}
}

func TestDeviceHamming(t *testing.T) {
	ds := smallDataset(500, 64)
	codes := ds.ToBinary()
	dev, err := NewBinary(DefaultConfig(4), codes)
	if err != nil {
		t.Fatal(err)
	}
	he := knn.NewHammingEngine(codes, 1)
	for _, i := range []int{3, 77, 250} {
		res, st, err := dev.SearchBinary(codes[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		want := he.Search(codes[i], 5)
		for j := range res {
			if res[j].Dist != want[j].Dist {
				t.Fatalf("query %d result %d: device dist %v, host %v", i, j, res[j].Dist, want[j].Dist)
			}
		}
		if res[0].ID != i {
			t.Fatalf("self query %d returned %d", i, res[0].ID)
		}
		if st.Cycles == 0 {
			t.Fatal("no cycles")
		}
	}
}

func TestAutoReplication(t *testing.T) {
	ds := smallDataset(300, 32)
	for _, vl := range []int{2, 16} {
		dev, err := NewFloat(DefaultConfig(vl), ds.Data, ds.Dim(), vec.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		if dev.PUsPerVault() < 1 || dev.PUsPerVault() > 8 {
			t.Fatalf("VL=%d: PUsPerVault = %d", vl, dev.PUsPerVault())
		}
		if dev.CyclesPerVector() <= 0 {
			t.Fatal("no calibration")
		}
	}
}

func TestWiderVectorsFaster(t *testing.T) {
	ds := smallDataset(800, 32)
	var prev float64
	for i, vl := range []int{2, 8} {
		dev, err := NewFloat(DefaultConfig(vl), ds.Data, ds.Dim(), vec.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := dev.Search(ds.Queries[0], 8)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.Seconds >= prev {
			t.Fatalf("VL=%d (%vs) not faster than narrower (%vs)", vl, st.Seconds, prev)
		}
		prev = st.Seconds
	}
}

func TestFixedPUsPerVault(t *testing.T) {
	ds := smallDataset(300, 8)
	cfg := DefaultConfig(4)
	cfg.PUsPerVault = 3
	dev, err := NewFloat(cfg, ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if dev.PUsPerVault() != 3 {
		t.Fatalf("PUsPerVault = %d, want 3", dev.PUsPerVault())
	}
}

func TestLargeKChainsQueues(t *testing.T) {
	ds := smallDataset(400, 8)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := dev.Search(ds.Queries[0], 40) // > one 16-entry stage
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 40 {
		t.Fatalf("got %d results, want 40", len(res))
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries[:1], 40)
	if r := dataset.Recall(gt[0], res); r < 0.85 {
		t.Fatalf("k=40 recall = %v", r)
	}
}

func TestErrorPaths(t *testing.T) {
	ds := smallDataset(100, 8)
	if _, err := NewFloat(DefaultConfig(4), ds.Data, 7, vec.Euclidean); err == nil {
		t.Fatal("no error on ragged data")
	}
	if _, err := NewFloat(DefaultConfig(4), ds.Data, 8, vec.HammingMetric); err == nil {
		t.Fatal("no error on Hamming via NewFloat")
	}
	if _, err := NewBinary(DefaultConfig(4), nil); err == nil {
		t.Fatal("no error on empty binary set")
	}
	dev, err := NewFloat(DefaultConfig(4), ds.Data, 8, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dev.Search(make([]float32, 3), 5); err == nil {
		t.Fatal("no error on wrong query dim")
	}
	if _, _, err := dev.SearchBinary(vec.NewBinary(8), 5); err == nil {
		t.Fatal("no error on binary search of float device")
	}
}

func TestCapacityGuard(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.HMC.CapacityBytes = 1024
	ds := smallDataset(200, 16)
	if _, err := NewFloat(cfg, ds.Data, ds.Dim(), vec.Euclidean); err == nil {
		t.Fatal("no error when dataset exceeds module capacity")
	}
}

func TestApproxQuerySeconds(t *testing.T) {
	ds := smallDataset(400, 16)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	small := dev.ApproxQuerySeconds(knn.Stats{DistEvals: 100, LeafScans: 4, NodeVisits: 20, HeapOps: 10})
	big := dev.ApproxQuerySeconds(knn.Stats{DistEvals: 10000, LeafScans: 4, NodeVisits: 20, HeapOps: 10})
	if small <= 0 || big <= small {
		t.Fatalf("approx model not monotone: %v vs %v", small, big)
	}
	// More buckets means more scan parallelism at equal evals.
	wide := dev.ApproxQuerySeconds(knn.Stats{DistEvals: 10000, LeafScans: 64, NodeVisits: 20, HeapOps: 10})
	if wide >= big {
		t.Fatalf("parallel scan (%v) not faster than serial (%v)", wide, big)
	}
}

func TestQueryStatsThroughput(t *testing.T) {
	st := QueryStats{Seconds: 0.001}
	if st.Throughput() != 1000 {
		t.Fatalf("Throughput = %v", st.Throughput())
	}
	if (QueryStats{}).Throughput() != 0 {
		t.Fatal("zero-seconds throughput should be 0")
	}
}

func TestDeviceShiftExposed(t *testing.T) {
	ds := smallDataset(100, 100)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Shift() != sim.DeviceShift(100) {
		t.Fatalf("Shift = %d", dev.Shift())
	}
	if dev.N() != 100 || dev.TotalPUs() <= 0 {
		t.Fatalf("accessors: N=%d PUs=%d", dev.N(), dev.TotalPUs())
	}
}
