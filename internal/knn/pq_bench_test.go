package knn

import (
	"runtime"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/vec"
)

// benchPQ caches BenchmarkPQSearch's engines by vault count: training
// and encoding 50 000 rows takes seconds, and the testing package calls
// a benchmark several times per -cpu value while it settles b.N.
var benchPQ = map[int]*PQEngine{}

var benchPQData *dataset.Dataset

// BenchmarkPQSearch times one quantized query at the spine's pq_single
// shape — 50 000 × 128, M = 8, re-rank 1000, one vault per core as the
// server builds it — rotating through 256 queries so that the re-rank
// reads rows the last query left cold. Run it at -cpu=1,2: the ADC
// pass is what the second core divides.
func BenchmarkPQSearch(b *testing.B) {
	if benchPQData == nil {
		benchPQData = dataset.Generate(dataset.Spec{
			Name: "pqbench", N: 50000, Dim: 128, NumQueries: 256, K: 10,
			Clusters: 64, ClusterStd: 0.3, Seed: 1,
		})
	}
	ds := benchPQData
	vaults := runtime.GOMAXPROCS(0)
	e := benchPQ[vaults]
	if e == nil {
		var err error
		e, err = NewPQEngineVaults(ds.Data, 128, vec.Euclidean, PQParams{M: 8, Sample: 2048, Rerank: 1000, Seed: 1}, 0, vaults)
		if err != nil {
			b.Fatal(err)
		}
		benchPQ[vaults] = e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Search(ds.Queries[i%len(ds.Queries)], 10)
	}
}
