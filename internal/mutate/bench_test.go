package mutate

import (
	"fmt"
	"math/rand"
	"testing"

	"ssam/internal/topk"
	"ssam/internal/vec"
)

var benchSink [][]topk.Result

// BenchmarkStoreSearchBatch times the mutable store's one search, the
// read path of a region after its first write, on a seeded 4096 × 64
// store with the default vault count (one per core): batches of 1 (a
// single query) and 16 (a batch the server's micro-batcher or
// /searchbatch hands down). Run it at -cpu=1,2: one core scans as one
// vault, two fan the batch out over two.
func BenchmarkStoreSearchBatch(b *testing.B) {
	const n, dim = 4096, 64
	r := rand.New(rand.NewSource(1))
	rows := randRows(r, n, dim)
	qs := randRows(r, 16, dim)
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			s := NewFloat(dim, vec.Euclidean, Options{}) // here, where -cpu has set GOMAXPROCS
			if err := s.Seed(seqIDs(n), rows); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i % (len(qs) - batch + 1)
				benchSink, _ = s.SearchBatch(qs[lo:lo+batch], 10, nil)
			}
		})
	}
}
