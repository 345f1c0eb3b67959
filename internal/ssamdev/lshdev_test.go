package ssamdev

import (
	"math/rand"
	"testing"

	"ssam/internal/knn"
	"ssam/internal/vec"
)

func testUniform(n, dim int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n*dim)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func TestLSHIndexSelfQuery(t *testing.T) {
	ds := smallDataset(800, 16)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dev.BuildLSHIndex(2, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A database vector hashes to its own bucket in every table.
	for _, i := range []int{0, 250, 799} {
		res, st, err := x.Search(ds.Row(i), 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != i || res[0].Dist != 0 {
			t.Fatalf("self query %d -> %+v", i, res)
		}
		if st.Cycles == 0 || st.PQInserts == 0 {
			t.Fatalf("no stats: %+v", st)
		}
	}
}

func TestLSHIndexRecallClustered(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PUsPerVault = 1
	ds := smallDataset(4000, 16)
	dev, err := NewFloat(cfg, ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dev.BuildLSHIndex(4, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	var hits, total int
	var scanned, n uint64
	for i, q := range ds.Queries {
		res, st, err := x.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		scanned += st.PQInserts
		n += uint64(ds.N())
		in := map[int]bool{}
		for _, r := range gt[i] {
			in[r.ID] = true
		}
		for _, r := range res {
			total++
			if in[r.ID] {
				hits++
			}
		}
	}
	recall := float64(hits) / float64(total)
	if recall < 0.3 {
		t.Fatalf("single-probe device LSH recall = %v, want well above chance", recall)
	}
	// The buckets must prune: far fewer candidates scored than a full
	// scan (hyperplanes through the origin keep clusters together, so
	// pruning is modest on clustered data — the paper uses 20 bits).
	if frac := float64(scanned) / float64(n); frac > 0.9 {
		t.Fatalf("scanned fraction = %v, buckets did not prune at all", frac)
	}
}

func TestLSHIndexCheaperOnUniform(t *testing.T) {
	// Uniform data splits into balanced orthants: hashing plus tiny
	// bucket scans must undercut the full linear scan.
	cfg := DefaultConfig(4)
	cfg.PUsPerVault = 1
	n, dim := 4000, 16
	data := testUniform(n, dim, 19)
	dev, err := NewFloat(cfg, data, dim, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dev.BuildLSHIndex(4, 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := testUniform(1, dim, 20)
	_, lst, err := dev.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, xst, err := x.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if xst.Cycles >= lst.Cycles {
		t.Fatalf("LSH (%d cycles) not cheaper than linear (%d) on uniform data",
			xst.Cycles, lst.Cycles)
	}
}

func TestLSHIndexMatchesHostHashing(t *testing.T) {
	// Bucket membership computed at build time (host integer dot) must
	// agree with the kernel's runtime hashing: querying with a database
	// row must scan a bucket containing that row in every table, so it
	// always reports itself at distance zero even with 1 bit tables.
	ds := smallDataset(300, 8)
	dev, err := NewFloat(DefaultConfig(2), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dev.BuildLSHIndex(1, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 37 {
		res, _, err := x.Search(ds.Row(i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].Dist != 0 {
			t.Fatalf("row %d not found in its own bucket: %v", i, res)
		}
	}
}

func TestMultiProbeImprovesRecall(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PUsPerVault = 1
	ds := smallDataset(3000, 16)
	dev, err := NewFloat(cfg, ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dev.BuildLSHIndex(2, 7, 13)
	if err != nil {
		t.Fatal(err)
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, 5)
	recallOf := func() (float64, uint64) {
		var hits, total int
		var scanned uint64
		for i, q := range ds.Queries {
			res, st, err := x.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			scanned += st.PQInserts
			in := map[int]bool{}
			for _, r := range gt[i] {
				in[r.ID] = true
			}
			for _, r := range res {
				total++
				if in[r.ID] {
					hits++
				}
			}
		}
		return float64(hits) / float64(total), scanned
	}
	single, singleScan := recallOf()
	x.MultiProbe = true
	multi, multiScan := recallOf()
	if multiScan <= singleScan {
		t.Fatalf("multi-probe scanned %d candidates, single %d", multiScan, singleScan)
	}
	if multi < single {
		t.Fatalf("multi-probe recall %v below single-probe %v", multi, single)
	}
	if multi < 0.5 {
		t.Fatalf("multi-probe recall = %v", multi)
	}
}

func TestLSHIndexErrors(t *testing.T) {
	ds := smallDataset(100, 8)
	dev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.BuildLSHIndex(0, 4, 1); err == nil {
		t.Fatal("tables=0 accepted")
	}
	if _, err := dev.BuildLSHIndex(2, 20, 1); err == nil {
		t.Fatal("bits=20 accepted (2^20 offsets per PU)")
	}
	mdev, err := NewFloat(DefaultConfig(4), ds.Data, ds.Dim(), vec.Manhattan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mdev.BuildLSHIndex(2, 4, 1); err == nil {
		t.Fatal("LSH on Manhattan device accepted")
	}
	x, err := dev.BuildLSHIndex(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.Search(make([]float32, 3), 5); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
}
