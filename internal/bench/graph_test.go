package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestGraphSweepShape(t *testing.T) {
	o := Options{Scale: 0.001, Queries: 3}
	tr, err := GraphSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Experiment != "graph" || tr.Dataset != "gist128" || tr.Dim != 128 {
		t.Fatalf("trajectory header: %+v", tr)
	}
	if tr.GOMAXPROCS <= 0 || tr.N <= 0 || tr.K != 10 {
		t.Fatalf("trajectory context: %+v", tr)
	}
	algos := map[string]int{}
	for _, r := range tr.Rows {
		algos[r.Algorithm]++
		if r.QPS <= 0 || r.Recall < 0 || r.Recall > 1 {
			t.Fatalf("implausible row %+v", r)
		}
	}
	if algos["linear"] != 1 || algos["graph"] != len(graphEfs) ||
		algos["kdtree"] == 0 || algos["kmeans"] == 0 || algos["mplsh"] == 0 {
		t.Fatalf("algorithm coverage: %v", algos)
	}
	// The exact baseline anchors the frontier map at recall 1.
	best := tr.BestAtRecall(0.9)
	if best["linear"] <= 0 {
		t.Fatalf("BestAtRecall missing linear baseline: %v", best)
	}
	if _, ok := best["graph"]; !ok {
		t.Fatalf("graph never reached recall 0.9 at scale %v: %v", o.Scale, best)
	}

	var buf bytes.Buffer
	if err := WriteTrajectory(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var back GraphTrajectory
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(tr.Rows) || back.Dataset != tr.Dataset {
		t.Fatalf("JSON round trip changed the trajectory")
	}

	r, err := GraphSweepReport(Options{Scale: 0.001, Queries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 || len(r.Header) != 6 {
		t.Fatalf("report shape: %d rows, header %v", len(r.Rows), r.Header)
	}
}
