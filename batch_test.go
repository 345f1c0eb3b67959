package ssam_test

import (
	"testing"

	"ssam"
	"ssam/internal/dataset"
)

func batchDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "batch", N: 1200, Dim: 16, NumQueries: 16, K: 4,
		Clusters: 8, ClusterStd: 0.3, Seed: 55,
	})
}

func buildRegion(t *testing.T, ds *dataset.Dataset, cfg ssam.Config) *ssam.Region {
	t.Helper()
	r, err := ssam.New(ds.Dim(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	ds := batchDataset(t)
	for _, cfg := range []ssam.Config{
		{Mode: ssam.Linear},
		{Mode: ssam.KDTree, Index: ssam.IndexParams{Checks: 300}},
		{Mode: ssam.KMeans, Index: ssam.IndexParams{Checks: 300}},
		{Mode: ssam.MPLSH, Index: ssam.IndexParams{Probes: 16}},
	} {
		r := buildRegion(t, ds, cfg)
		batch, err := r.SearchBatch(ds.Queries, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(ds.Queries) {
			t.Fatalf("%v: %d batch results", cfg.Mode, len(batch))
		}
		for i, q := range ds.Queries {
			seq, err := r.Search(q, 4)
			if err != nil {
				t.Fatal(err)
			}
			for j := range seq {
				if batch[i][j] != seq[j] {
					t.Fatalf("%v query %d result %d: batch %+v vs seq %+v",
						cfg.Mode, i, j, batch[i][j], seq[j])
				}
			}
		}
		r.Free()
	}
}

func TestSearchBatchDevice(t *testing.T) {
	ds := batchDataset(t)
	r := buildRegion(t, ds, ssam.Config{Execution: ssam.Device, VectorLength: 4})
	defer r.Free()
	batch, st, err := r.SearchBatchSpan(ds.Queries[:4], 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 {
		t.Fatalf("batch size %d", len(batch))
	}
	if st.Cycles == 0 || st.Seconds <= 0 {
		t.Fatalf("no accumulated stats: %+v", st)
	}
	// Sequential service: batch cost is ~4x a single query.
	_, one, err := r.SearchStats(ds.Queries[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seconds < 3*one.Seconds {
		t.Fatalf("batch of 4 (%vs) should cost ~4 single queries (%vs each)", st.Seconds, one.Seconds)
	}
}

func TestSearchBatchErrors(t *testing.T) {
	ds := batchDataset(t)
	r := buildRegion(t, ds, ssam.Config{})
	defer r.Free()
	if _, err := r.SearchBatch([][]float32{make([]float32, 3)}, 4); err == nil {
		t.Fatal("wrong-dim batch accepted")
	}
	if _, err := r.SearchBatch(ds.Queries, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	fresh, err := ssam.New(ds.Dim(), ssam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.SearchBatch(ds.Queries, 4); err == nil {
		t.Fatal("batch before BuildIndex accepted")
	}
	r.Free()
	if _, err := r.SearchBatch(ds.Queries, 4); err != ssam.ErrFreed {
		t.Fatalf("batch after Free = %v", err)
	}
}
