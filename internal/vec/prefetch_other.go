//go:build !amd64

package vec

// Prefetch is a hint with no effect where there is no assembly to give
// it (block_amd64.go).
func Prefetch(row []float32) {}
