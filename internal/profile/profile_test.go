package profile

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/knn"
	"ssam/internal/lsh"
	"ssam/internal/vec"
)

func TestMixArithmetic(t *testing.T) {
	m := Mix{VectorArith: 10, VectorLoad: 10, ScalarRead: 20, ScalarWrite: 5, ScalarOther: 55}
	if m.Total() != 100 {
		t.Fatalf("Total = %v", m.Total())
	}
	if m.VectorPct() != 20 {
		t.Fatalf("VectorPct = %v", m.VectorPct())
	}
	if m.ReadPct() != 30 {
		t.Fatalf("ReadPct = %v", m.ReadPct())
	}
	if m.WritePct() != 5 {
		t.Fatalf("WritePct = %v", m.WritePct())
	}
	var a Mix
	a.Add(m)
	a.Add(m)
	if a.Total() != 200 {
		t.Fatalf("Add/Total = %v", a.Total())
	}
}

func TestLinearMixNearTableI(t *testing.T) {
	// Table I, Linear row on GloVe: AVX 54.75%, reads 45.23%,
	// writes 0.44%. Our calibration should land within a few points
	// for the vector and write columns.
	ds := dataset.Generate(dataset.Spec{
		Name: "g", N: 3000, Dim: 100, NumQueries: 5, K: 6,
		Clusters: 16, ClusterStd: 0.3, Seed: 3,
	})
	e := knn.NewEngine(ds.Data, 100, vec.Euclidean, 1)
	var mix Mix
	for _, q := range ds.Queries {
		_, st := e.SearchStats(q, 6)
		mix.Add(LinearMix(st, 6))
	}
	if v := mix.VectorPct(); v < 45 || v > 65 {
		t.Fatalf("linear VectorPct = %v, want near 54.75", v)
	}
	if w := mix.WritePct(); w > 3 {
		t.Fatalf("linear WritePct = %v, want near 0.44", w)
	}
	if r := mix.ReadPct(); r < 30 || r > 60 {
		t.Fatalf("linear ReadPct = %v, want near 45.23", r)
	}
}

// TestTableIShape verifies the qualitative structure of Table I:
// linear and k-means are the most vectorized; kd-tree and MPLSH are
// markedly less vectorized and write memory much more.
func TestTableIShape(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "g", N: 4000, Dim: 100, NumQueries: 10, K: 6,
		Clusters: 32, ClusterStd: 0.3, Seed: 4,
	})
	k := 6

	var linear, kd, km, mp Mix

	e := knn.NewEngine(ds.Data, 100, vec.Euclidean, 1)
	f := kdtree.Build(ds.Data, 100, kdtree.DefaultParams())
	f.Checks = 400
	tr := kmeans.Build(ds.Data, 100, kmeans.DefaultParams())
	tr.Checks = 400
	x := lsh.Build(ds.Data, 100, lsh.DefaultParams())
	x.Probes = 8

	for _, q := range ds.Queries {
		_, st := e.SearchStats(q, k)
		linear.Add(LinearMix(st, k))
		_, st2 := f.SearchStats(q, k)
		kd.Add(KDTreeMix(st2, k))
		_, st3 := tr.SearchStats(q, k)
		km.Add(KMeansMix(st3, k))
		_, st4 := x.SearchStats(q, k)
		mp.Add(MPLSHMix(st4, k))
	}

	if linear.VectorPct() <= kd.VectorPct() {
		t.Errorf("linear (%v%%) should vectorize more than kd-tree (%v%%)",
			linear.VectorPct(), kd.VectorPct())
	}
	if km.VectorPct() <= mp.VectorPct() {
		t.Errorf("k-means (%v%%) should vectorize more than MPLSH (%v%%)",
			km.VectorPct(), mp.VectorPct())
	}
	if kd.WritePct() <= linear.WritePct() {
		t.Errorf("kd-tree writes (%v%%) should exceed linear writes (%v%%)",
			kd.WritePct(), linear.WritePct())
	}
	if mp.WritePct() <= km.WritePct() {
		t.Errorf("MPLSH writes (%v%%) should exceed k-means writes (%v%%)",
			mp.WritePct(), km.WritePct())
	}
	t.Logf("Table I shape: linear %.1f/%.1f/%.2f kd %.1f/%.1f/%.2f km %.1f/%.1f/%.2f mplsh %.1f/%.1f/%.2f",
		linear.VectorPct(), linear.ReadPct(), linear.WritePct(),
		kd.VectorPct(), kd.ReadPct(), kd.WritePct(),
		km.VectorPct(), km.ReadPct(), km.WritePct(),
		mp.VectorPct(), mp.ReadPct(), mp.WritePct())
}

func TestZeroWorkMixes(t *testing.T) {
	// Recipes must not divide by zero or go negative on empty stats.
	mixes := []Mix{
		LinearMix(knn.Stats{DistEvals: 1, Dims: 8, PQInserts: 1}, 5),
		KDTreeMix(knn.Stats{DistEvals: 1, Dims: 8}, 5),
		KMeansMix(knn.Stats{DistEvals: 1, Dims: 8}, 5),
		MPLSHMix(knn.Stats{DistEvals: 1, Dims: 8}, 5),
	}
	for i, m := range mixes {
		if m.Total() <= 0 {
			t.Errorf("mix %d has nonpositive total", i)
		}
		if m.VectorPct() < 0 || m.ReadPct() < 0 || m.WritePct() < 0 {
			t.Errorf("mix %d has negative percentage", i)
		}
	}
}
