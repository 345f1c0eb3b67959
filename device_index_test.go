package ssam_test

// Public-API tests for the on-device indexes: kd-tree, hierarchical
// k-means and hyperplane LSH running through the cycle simulator.

import (
	"testing"

	"ssam"
	"ssam/internal/dataset"
)

func devIndexDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "devidx", N: 2000, Dim: 16, NumQueries: 10, K: 5,
		Clusters: 8, ClusterStd: 0.25, Seed: 41,
	})
}

func TestDeviceIndexedModes(t *testing.T) {
	ds := devIndexDataset(t)
	exact := buildRegion(t, ds, ssam.Config{Mode: ssam.Linear})
	defer exact.Free()

	cases := []ssam.Config{
		{Mode: ssam.KDTree, Execution: ssam.Device, VectorLength: 4,
			Index: ssam.IndexParams{Checks: 64}},
		{Mode: ssam.KMeans, Execution: ssam.Device, VectorLength: 4,
			Index: ssam.IndexParams{Checks: 64, Branching: 4}},
		{Mode: ssam.MPLSH, Execution: ssam.Device, VectorLength: 4,
			Index: ssam.IndexParams{Tables: 4, Bits: 5, Probes: 8}},
	}
	for _, cfg := range cases {
		r := buildRegion(t, ds, cfg)
		hits, total := 0, 0
		var cycles uint64
		for _, q := range ds.Queries {
			want, err := exact.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := r.SearchStats(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			cycles += st.Cycles
			in := map[int]bool{}
			for _, w := range want {
				in[w.ID] = true
			}
			for _, g := range got {
				total++
				if in[g.ID] {
					hits++
				}
			}
		}
		if cycles == 0 {
			t.Errorf("%v: no simulated cycles reported", cfg.Mode)
		}
		if recall := float64(hits) / float64(total); recall < 0.5 {
			t.Errorf("%v device recall = %v", cfg.Mode, recall)
		}
		r.Free()
	}
}

func TestDeviceIndexSetChecks(t *testing.T) {
	ds := devIndexDataset(t)
	r := buildRegion(t, ds, ssam.Config{
		Mode: ssam.KDTree, Execution: ssam.Device, VectorLength: 4,
		Index: ssam.IndexParams{Checks: 2},
	})
	defer r.Free()
	_, low, err := r.SearchStats(ds.Queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetChecks(200); err != nil {
		t.Fatal(err)
	}
	_, high, err := r.SearchStats(ds.Queries[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if high.Cycles <= low.Cycles {
		t.Fatalf("SetChecks did not increase device work: %d -> %d", low.Cycles, high.Cycles)
	}
}

func TestDeviceIndexBatch(t *testing.T) {
	ds := devIndexDataset(t)
	r := buildRegion(t, ds, ssam.Config{
		Mode: ssam.KMeans, Execution: ssam.Device, VectorLength: 4,
		Index: ssam.IndexParams{Checks: 32, Branching: 4},
	})
	defer r.Free()
	batch, err := r.SearchBatch(ds.Queries[:4], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, q := range ds.Queries[:4] {
		seq, err := r.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j := range seq {
			if batch[i][j] != seq[j] {
				t.Fatalf("batch/seq mismatch at %d/%d", i, j)
			}
		}
	}
}
