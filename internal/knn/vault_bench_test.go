package knn

import (
	"fmt"
	"math/rand"
	"testing"

	"ssam/internal/vec"
)

// BenchmarkSearchVaults times one GIST-shaped query (960-d, the
// paper's widest float workload) at fixed vault counts, serial
// threshold forced to zero so every count takes its configured path.
// Compare the sub-benchmarks to read the intra-query scaling on the
// machine at hand; the spine's linear_single and linear_batch16
// workloads time the same scan end to end.
func BenchmarkSearchVaults(b *testing.B) {
	const (
		dim = 960
		n   = 4096
		k   = 10
	)
	rng := rand.New(rand.NewSource(42))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	q := make([]float32, dim)
	for i := range q {
		q[i] = rng.Float32()
	}
	for _, vaults := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("%d", vaults), func(b *testing.B) {
			e := NewEngine(data, dim, vec.Euclidean, vaults)
			e.SetSerialThreshold(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Search(q, k)
			}
		})
	}
}
