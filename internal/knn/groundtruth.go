package knn

import (
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// GroundTruth computes the exact Euclidean neighbor sets for a batch
// of queries — the S_E reference sets of the paper's accuracy metric,
// bit-identical at any vault count.
func GroundTruth(data []float32, dim int, queries [][]float32, k int) [][]topk.Result {
	return NewEngine(data, dim, vec.Euclidean, 0).SearchBatch(queries, k)
}
