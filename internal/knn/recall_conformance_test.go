package knn_test

// Cross-engine recall conformance: every approximate engine in the
// repo — kd-tree forest, hierarchical k-means, hyperplane MPLSH, the
// HNSW-style graph, and the product-quantized scan — is scored against
// ONE shared exact linear oracle on one shared dataset. Each engine
// declares a recall floor for its configured accuracy knob; the suite
// fails if any engine regresses below its floor. Floors are set ~0.05
// below observed recall on the pinned seed so genuine regressions trip
// them while k-means-initialization noise does not.
//
// This is the conformance analogue of the paper's Fig. 2 sweep: all
// engines answer the same queries against the same ground truth, so
// their accuracy knobs are directly comparable.

import (
	"fmt"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/graph"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/knn"
	"ssam/internal/lsh"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// conformanceCase is one engine under test: a builder over the shared
// dataset and the minimum mean recall@k it must sustain against the
// shared oracle.
type conformanceCase struct {
	name   string
	floor  float64
	search func(q []float32, k int) []topk.Result
}

func TestRecallConformance(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "conformance", N: 4000, Dim: 48, NumQueries: 64, K: 10,
		Clusters: 24, ClusterStd: 0.3, Seed: 0xc0f0,
	})
	k := ds.Spec.K
	dim := ds.Dim()

	// The single shared oracle every engine is scored against.
	oracle := knn.GroundTruth(ds.Data, dim, ds.Queries, k)

	pqScan, err := knn.NewPQScan(ds.Data, dim, vec.Euclidean,
		knn.PQParams{M: 8, Rerank: 120, Seed: 5}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	pqSearch := func(q []float32, k int) []topk.Result {
		out, _, _, err := pqScan.RunBatch([][]float32{q}, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}

	forest := kdtree.Build(ds.Data, dim, kdtree.DefaultParams())
	forest.Checks = 400
	tree := kmeans.Build(ds.Data, dim, kmeans.DefaultParams())
	tree.Checks = 400
	mplsh := lsh.Build(ds.Data, dim, lsh.Params{Tables: 8, Bits: 12, Seed: 2})
	mplsh.Probes = 16
	hnsw := graph.Build(ds.Data, dim, graph.DefaultParams())
	hnsw.EfSearch = 96

	cases := []conformanceCase{
		{"kdtree/checks=400", 0.90, forest.Search},
		{"kmeans/checks=400", 0.85, tree.Search},
		{"lsh/tables=8,probes=16", 0.60, mplsh.Search},
		{"graph/ef=96", 0.95, hnsw.Search},
		{"pq/m=8,rerank=120", 0.90, pqSearch},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := 0.0
			worst := 1.0
			for i, q := range ds.Queries {
				r := dataset.Recall(oracle[i], tc.search(q, k))
				total += r
				if r < worst {
					worst = r
				}
			}
			mean := total / float64(len(ds.Queries))
			t.Logf("mean recall@%d = %.3f (worst query %.2f, floor %.2f)", k, mean, worst, tc.floor)
			if mean < tc.floor {
				t.Errorf("mean recall@%d = %.3f below conformance floor %.2f", k, mean, tc.floor)
			}
		})
	}
}

// TestRecallConformanceOracleIsExact pins the oracle itself: the
// shared ground truth must equal a fresh serial linear scan
// bit-for-bit, so every floor above is anchored to exact search and
// not to another approximation.
func TestRecallConformanceOracleIsExact(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "oracle", N: 700, Dim: 24, NumQueries: 12, K: 8,
		Clusters: 8, ClusterStd: 0.3, Seed: 0x0a1e,
	})
	oracle := knn.GroundTruth(ds.Data, ds.Dim(), ds.Queries, ds.Spec.K)
	lin := knn.NewEngine(ds.Data, ds.Dim(), vec.Euclidean, 1)
	for i, q := range ds.Queries {
		want := lin.Search(q, ds.Spec.K)
		if fmt.Sprint(oracle[i]) != fmt.Sprint(want) {
			t.Fatalf("query %d: oracle %v != linear scan %v", i, oracle[i], want)
		}
	}
}
