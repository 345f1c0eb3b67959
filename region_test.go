package ssam

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/vec"
)

func regionDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "api", N: 1500, Dim: 20, NumQueries: 10, K: 5,
		Clusters: 12, ClusterStd: 0.3, Seed: 33,
	})
}

func TestHostLinearLifecycle(t *testing.T) {
	ds := regionDataset(t)
	r, err := New(ds.Dim(), Config{Mode: Linear, Metric: Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Search(ds.Row(7), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 7 || res[0].Dist != 0 {
		t.Fatalf("self query = %+v", res[0])
	}
	if r.Len() != ds.N() || r.Dims() != ds.Dim() {
		t.Fatalf("Len/Dims = %d/%d", r.Len(), r.Dims())
	}
}

func TestExplicitFigure4Sequence(t *testing.T) {
	ds := regionDataset(t)
	r, _ := New(ds.Dim(), Config{})
	defer r.Free()
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteQuery(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Exec(5); err != nil {
		t.Fatal(err)
	}
	res, err := r.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
}

func TestIndexedModesAgreeWithLinear(t *testing.T) {
	ds := regionDataset(t)
	lin, _ := New(ds.Dim(), Config{Mode: Linear})
	if err := lin.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := lin.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{KDTree, KMeans, MPLSH} {
		r, err := New(ds.Dim(), Config{
			Mode:  mode,
			Index: IndexParams{Checks: ds.N(), Probes: 512},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.LoadFloat32(ds.Data); err != nil {
			t.Fatal(err)
		}
		if err := r.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		hits, total := 0, 0
		for _, q := range ds.Queries {
			exact, err := lin.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := r.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			in := map[int]bool{}
			for _, e := range exact {
				in[e.ID] = true
			}
			for _, a := range approx {
				total++
				if in[a.ID] {
					hits++
				}
			}
		}
		recall := float64(hits) / float64(total)
		if recall < 0.55 {
			t.Errorf("%v exhaustive-ish recall = %v", mode, recall)
		}
		r.Free()
	}
	lin.Free()
}

func TestDeviceExecution(t *testing.T) {
	ds := regionDataset(t)
	r, err := New(ds.Dim(), Config{Mode: Linear, Execution: Device, VectorLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, st, err := r.SearchStats(ds.Row(42), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 42 {
		t.Fatalf("device self query = %+v", res[0])
	}
	if st.Cycles == 0 || st.Throughput() <= 0 || st.ProcessingUnits <= 0 {
		t.Fatalf("device stats empty: %+v", st)
	}
	if r.Device() == nil {
		t.Fatal("Device() nil after device build")
	}
}

func TestHammingRegion(t *testing.T) {
	ds := regionDataset(t)
	codes := ds.ToBinary()
	r, err := New(ds.Dim(), Config{Mode: Linear, Metric: Hamming})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Free()
	if err := r.LoadBinary(codes); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	res, err := r.SearchBinary(codes[9], 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 9 || res[0].Dist != 0 {
		t.Fatalf("hamming self query = %+v", res[0])
	}
}

func TestSetChecks(t *testing.T) {
	ds := regionDataset(t)
	r, _ := New(ds.Dim(), Config{Mode: KDTree})
	defer r.Free()
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := r.SetChecks(64); err != nil {
		t.Fatal(err)
	}
	if err := r.SetChecks(0); err == nil {
		t.Fatal("SetChecks(0) should error")
	}
	lin, _ := New(ds.Dim(), Config{})
	_ = lin.LoadFloat32(ds.Data)
	_ = lin.BuildIndex()
	if err := lin.SetChecks(10); err == nil {
		t.Fatal("SetChecks on linear region should error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Fatal("dims 0 accepted")
	}
	if _, err := New(8, Config{VectorLength: 5}); err == nil {
		t.Fatal("vector length 5 accepted")
	}
	if _, err := New(8, Config{Execution: Device, Mode: KDTree, Metric: Manhattan}); err == nil {
		t.Fatal("device Manhattan kd-tree accepted")
	}
	if _, err := New(8, Config{Metric: Hamming, Mode: MPLSH}); err == nil {
		t.Fatal("hamming MPLSH accepted")
	}
	if _, err := New(8, Config{Metric: Cosine, Mode: KMeans}); err == nil {
		t.Fatal("cosine k-means accepted")
	}
}

func TestUsageErrors(t *testing.T) {
	ds := regionDataset(t)
	r, _ := New(ds.Dim(), Config{})
	if err := r.BuildIndex(); err == nil {
		t.Fatal("BuildIndex before load accepted")
	}
	if err := r.LoadFloat32(ds.Data[:5]); err == nil {
		t.Fatal("ragged load accepted")
	}
	if _, err := r.ReadResult(); err == nil {
		t.Fatal("ReadResult before Exec accepted")
	}
	if err := r.LoadFloat32(ds.Data); err != nil {
		t.Fatal(err)
	}
	if err := r.Exec(5); err == nil {
		t.Fatal("Exec before BuildIndex accepted")
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if err := r.Exec(5); err == nil {
		t.Fatal("Exec before WriteQuery accepted")
	}
	if err := r.WriteQuery(make([]float32, 3)); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
	if err := r.WriteQuery(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Exec(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := r.WriteQueryBinary(vec.NewBinary(ds.Dim())); err == nil {
		t.Fatal("binary query on float region accepted")
	}
}

func TestFreedRegion(t *testing.T) {
	ds := regionDataset(t)
	r, _ := New(ds.Dim(), Config{})
	_ = r.LoadFloat32(ds.Data)
	_ = r.BuildIndex()
	r.Free()
	if err := r.LoadFloat32(ds.Data); err != ErrFreed {
		t.Fatalf("LoadFloat32 after Free = %v", err)
	}
	if err := r.BuildIndex(); err != ErrFreed {
		t.Fatalf("BuildIndex after Free = %v", err)
	}
	if _, err := r.Search(ds.Queries[0], 3); err != ErrFreed {
		t.Fatalf("Search after Free = %v", err)
	}
	if _, err := r.ReadResult(); err != ErrFreed {
		t.Fatalf("ReadResult after Free = %v", err)
	}
}

func TestMetricAndModeStrings(t *testing.T) {
	if Euclidean.String() != "euclidean" || Hamming.String() != "hamming" {
		t.Fatal("metric strings wrong")
	}
	if Linear.String() != "linear" || MPLSH.String() != "mplsh" || Mode(99).String() != "unknown" {
		t.Fatal("mode strings wrong")
	}
}
