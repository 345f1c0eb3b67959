package lsh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ssam/internal/dataset"
	"ssam/internal/knn"
)

func testDataset() *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Name: "t", N: 3000, Dim: 16, NumQueries: 30, K: 5,
		Clusters: 16, ClusterStd: 0.25, Seed: 7,
	})
}

func TestProbeSeqBasic(t *testing.T) {
	margins := []float64{0.5, 0.1, 0.9}
	probes := probeSeq(0b000, margins, 4)
	if probes[0] != 0 {
		t.Fatalf("first probe = %b, want base code", probes[0])
	}
	// Cheapest perturbation flips bit 1 (margin 0.1), then bit 0 (0.5),
	// then bits {1,0} (0.6).
	want := []uint32{0b000, 0b010, 0b001, 0b011}
	for i, w := range want {
		if probes[i] != w {
			t.Fatalf("probe %d = %03b, want %03b", i, probes[i], w)
		}
	}
}

func TestProbeSeqUnique(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bits := r.Intn(12) + 1
		margins := make([]float64, bits)
		for i := range margins {
			margins[i] = r.Float64()
		}
		n := r.Intn(40) + 1
		probes := probeSeq(uint32(r.Intn(1<<bits)), margins, n)
		seen := map[uint32]struct{}{}
		for _, p := range probes {
			if _, dup := seen[p]; dup {
				return false
			}
			seen[p] = struct{}{}
		}
		max := 1 << bits
		return len(probes) <= n && len(probes) <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeSeqCostOrdered(t *testing.T) {
	margins := []float64{0.3, 0.7, 0.2, 0.9, 0.5}
	probes := probeSeq(0, margins, 20)
	cost := func(code uint32) float64 {
		var c float64
		for b := range margins {
			if code&(1<<uint(b)) != 0 {
				c += margins[b]
			}
		}
		return c
	}
	for i := 1; i < len(probes); i++ {
		if cost(probes[i]) < cost(probes[i-1])-1e-12 {
			t.Fatalf("probe costs not non-decreasing at %d: %v < %v",
				i, cost(probes[i]), cost(probes[i-1]))
		}
	}
}

func TestBuildBucketsPartition(t *testing.T) {
	ds := testDataset()
	x := Build(ds.Data, ds.Dim(), DefaultParams())
	for ti := range x.tables {
		total := 0
		for _, b := range x.tables[ti].buckets {
			total += len(b)
		}
		if total != ds.N() {
			t.Fatalf("table %d buckets hold %d of %d vectors", ti, total, ds.N())
		}
	}
}

func TestRecallImprovesWithProbes(t *testing.T) {
	ds := testDataset()
	x := Build(ds.Data, ds.Dim(), DefaultParams())
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	recallAt := func(probes int) (float64, int) {
		x.Probes = probes
		var recall float64
		evals := 0
		for i, q := range ds.Queries {
			res, st := x.SearchStats(q, 5)
			recall += dataset.Recall(gt[i], res)
			evals += st.DistEvals
		}
		return recall / float64(len(ds.Queries)), evals
	}
	low, lowEvals := recallAt(1)
	high, highEvals := recallAt(256)
	if highEvals <= lowEvals {
		t.Fatalf("probes knob did not increase candidates: %d vs %d", lowEvals, highEvals)
	}
	if high < low {
		t.Fatalf("recall fell with more probes: %v -> %v", low, high)
	}
	if high < 0.6 {
		t.Fatalf("high-probe recall = %v, too low", high)
	}
}

func TestNearDuplicateFound(t *testing.T) {
	// A query equal to a database vector must find it with few probes:
	// identical vectors share every hash code.
	ds := testDataset()
	x := Build(ds.Data, ds.Dim(), DefaultParams())
	x.Probes = 1
	hits := 0
	for i := 0; i < 20; i++ {
		res := x.Search(ds.Row(i*7), 1)
		if len(res) > 0 && res[0].ID == i*7 {
			hits++
		}
	}
	if hits < 20 {
		t.Fatalf("self-query hits = %d/20", hits)
	}
}

func TestDeterministicBuild(t *testing.T) {
	ds := testDataset()
	a := Build(ds.Data, ds.Dim(), DefaultParams())
	b := Build(ds.Data, ds.Dim(), DefaultParams())
	ra := a.Search(ds.Queries[0], 5)
	rb := b.Search(ds.Queries[0], 5)
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic result size")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("nondeterministic build")
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := testDataset()
	x := Build(ds.Data, ds.Dim(), DefaultParams())
	x.Probes = 16
	_, st := x.SearchStats(ds.Queries[0], 5)
	if st.HashDims != x.Bits()*ds.Dim()*x.Tables() {
		t.Fatalf("HashDims = %d", st.HashDims)
	}
	if st.Probes != 16*x.Tables() {
		t.Fatalf("Probes = %d, want %d", st.Probes, 16*x.Tables())
	}
	if st.DistEvals == 0 {
		t.Fatal("no candidates scored")
	}
}

func TestHashMargins(t *testing.T) {
	planes := [][]float32{{1, 0}, {0, -1}}
	m := make([]float64, 2)
	h, m := hashWithMargins([]float32{3, 2}, planes, m)
	if h != 0b01 {
		t.Fatalf("hash = %02b, want 01", h)
	}
	if math.Abs(m[0]-3) > 1e-9 || math.Abs(m[1]-2) > 1e-9 {
		t.Fatalf("margins = %v", m)
	}
}

func TestAccessors(t *testing.T) {
	ds := testDataset()
	x := Build(ds.Data, ds.Dim(), Params{Tables: 3, Bits: 12, Seed: 2})
	if x.N() != ds.N() || x.Bits() != 12 || x.Tables() != 3 {
		t.Fatalf("accessors: %d %d %d", x.N(), x.Bits(), x.Tables())
	}
}

func TestBuildPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(make([]float32, 4), 2, Params{Tables: 1, Bits: 31})
}
