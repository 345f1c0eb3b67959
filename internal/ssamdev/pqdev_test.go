package ssamdev

import (
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/pq"
	"ssam/internal/vec"
)

func pqTestData(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.Spec{
		Name: "pqdev", N: 1200, Dim: 16, NumQueries: 16, K: 10,
		Clusters: 12, ClusterStd: 0.3, Seed: 21,
	})
}

func pqTestEngine(t *testing.T, ds *dataset.Dataset, rerank int) *knn.PQScan {
	t.Helper()
	e, err := knn.NewPQScan(ds.Data, ds.Dim(), vec.Euclidean,
		knn.PQParams{M: 4, Sample: 1024, Rerank: rerank, Seed: 3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAttachPQIndex(t *testing.T) {
	ds := pqTestData(t)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	e := pqTestEngine(t, ds, 32)
	if _, err := dev.AttachPQIndex(e); err != nil {
		t.Fatal(err)
	}

	// Shape mismatch: an engine over a different database is refused.
	other, err := knn.NewPQScan(ds.Data[:ds.Dim()*300], ds.Dim(), vec.Euclidean,
		knn.PQParams{M: 4, Sample: 256, Seed: 3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.AttachPQIndex(other); err == nil {
		t.Fatal("mismatched engine shape accepted")
	}
	// Metric mismatch.
	manh, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := manh.AttachPQIndex(e); err == nil {
		t.Fatal("Manhattan device accepted a Euclidean engine")
	}
	// Binary devices have no float rows to re-rank against.
	codes := make([]vec.Binary, 64)
	for i := range codes {
		codes[i] = vec.NewBinary(64)
	}
	bin, err := NewBinary(DefaultConfig(4), codes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bin.AttachPQIndex(e); err == nil {
		t.Fatal("binary device accepted a pq index")
	}
}

// TestPQDeviceResultsAndModel pins that device execution returns the
// host engine's exact neighbors and that the modeled stats track the
// ADC work counters — in particular the §IV bandwidth story: the scan
// streams one code byte per subquantizer per row, so DRAM traffic is
// n·M plus the query broadcast plus the re-ranked rows, far below the
// float scan's n·dim·4.
func TestPQDeviceResultsAndModel(t *testing.T) {
	ds := pqTestData(t)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	e := pqTestEngine(t, ds, 32)
	pi, err := dev.AttachPQIndex(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ds.Queries {
		hout, hst, _, err := e.RunBatch([][]float32{q}, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		hres := hout[0]
		dres, dst, err := pi.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(hres) != len(dres) {
			t.Fatalf("host %d results, device %d", len(hres), len(dres))
		}
		for j := range hres {
			if hres[j] != dres[j] {
				t.Fatalf("rank %d: host %+v != device %+v", j, hres[j], dres[j])
			}
		}
		wantDRAM := uint64(hst.CodeEvals)*uint64(e.M()) +
			uint64(dev.dim)*4 +
			uint64(hst.DistEvals)*uint64(dev.padded)*4
		if dst.DRAMBytesRead != wantDRAM {
			t.Fatalf("DRAMBytesRead = %d, want %d", dst.DRAMBytesRead, wantDRAM)
		}
		if floatScan := uint64(ds.N()*ds.Dim()) * 4; dst.DRAMBytesRead >= floatScan {
			t.Fatalf("code-stream traffic %d not below float-scan %d", dst.DRAMBytesRead, floatScan)
		}
		if dst.Cycles == 0 || dst.Seconds <= 0 || dst.VectorInsts == 0 ||
			dst.PUs != dev.TotalPUs() || dst.PQInserts != uint64(hst.PQInserts) {
			t.Fatalf("implausible model stats %+v for work %+v", dst, hst)
		}
		// The table build alone lower-bounds the cycle count.
		minCycles := uint64(float64(pq.Ks*dev.dim) / float64(dev.cfg.PU.VectorLen))
		if dst.Cycles < minCycles {
			t.Fatalf("cycles %d below table-build floor %d", dst.Cycles, minCycles)
		}
	}

	if _, _, err := pi.Search(ds.Queries[0][:4], 10); err == nil {
		t.Fatal("bad query dim accepted")
	}
	if _, _, err := pi.Search(ds.Queries[0], 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestPQDeviceRerankScalesWork checks the knob feeds the model: a
// deeper re-rank fetches more full-precision rows and costs more
// device time and traffic.
func TestPQDeviceRerankScalesWork(t *testing.T) {
	ds := pqTestData(t)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	e := pqTestEngine(t, ds, 0)
	pi, err := dev.AttachPQIndex(e)
	if err != nil {
		t.Fatal(err)
	}
	var shallowCycles, shallowDRAM uint64
	for _, q := range ds.Queries {
		_, st, err := pi.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		shallowCycles += st.Cycles
		shallowDRAM += st.DRAMBytesRead
	}
	e.SetRerank(400)
	var deepCycles, deepDRAM uint64
	for _, q := range ds.Queries {
		_, st, err := pi.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		deepCycles += st.Cycles
		deepDRAM += st.DRAMBytesRead
	}
	if deepCycles <= shallowCycles {
		t.Fatalf("rerank=400 cost %d cycles <= rerank=0 cost %d", deepCycles, shallowCycles)
	}
	if deepDRAM <= shallowDRAM {
		t.Fatalf("rerank=400 traffic %d <= rerank=0 traffic %d", deepDRAM, shallowDRAM)
	}
}
