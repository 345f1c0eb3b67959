package vec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

var floatMetrics = []Metric{Euclidean, Manhattan, Cosine, ChiSquared, JaccardMetric}

// TestTileRowEqualsDistance is the kernel's contract: at every dimension
// and tile width, for every float metric, Row's output is Distance's,
// by exact float64 equality — zero vectors (Cosine's and Jaccard's
// special cases) on either side included.
func TestTileRowEqualsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vecOf := func(dim int, nonneg bool) []float32 {
		v := make([]float32, dim)
		if rng.Intn(8) == 0 {
			return v // a zero vector
		}
		for i := range v {
			v[i] = float32(rng.NormFloat64() * 3)
			if nonneg && v[i] < 0 {
				v[i] = -v[i]
			}
		}
		return v
	}
	for _, m := range floatMetrics {
		nonneg := m == ChiSquared || m == JaccardMetric
		for dim := 1; dim <= 67; dim++ {
			for width := 1; width <= 17; width++ {
				qs := make([][]float32, width)
				for j := range qs {
					qs[j] = vecOf(dim, nonneg)
				}
				tile := NewTile(m, qs)
				if tile.Len() != width {
					t.Fatalf("Len = %d, want %d", tile.Len(), width)
				}
				out := make([]float64, width+1)
				for r := 0; r < 3; r++ {
					row := vecOf(dim, nonneg)
					out[width] = -1
					tile.Row(row, out)
					for j, q := range qs {
						if want := Distance(m, q, row); out[j] != want {
							t.Fatalf("%v dim=%d width=%d query %d: Row = %v, Distance = %v", m, dim, width, j, out[j], want)
						}
					}
					if out[width] != -1 {
						t.Fatalf("%v dim=%d width=%d: Row wrote past Len", m, dim, width)
					}
				}
			}
		}
	}
}

func TestTilePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, "vec: ") {
				t.Fatalf("%s: panic = %q, want a vec: message", name, msg)
			}
		}()
		f()
	}
	for _, m := range floatMetrics {
		tile := NewTile(m, [][]float32{{1, 2, 3}})
		mustPanic(m.String()+" short row", func() { tile.Row([]float32{1, 2}, make([]float64, 1)) })
	}
	mustPanic("ragged batch", func() { NewTile(Euclidean, [][]float32{{1, 2}, {1}}) })
	mustPanic("empty batch", func() { NewTile(Euclidean, nil) })
	mustPanic("hamming", func() { NewTile(HammingMetric, [][]float32{{1}}) })
}

// The layer microbenchmarks (ROADMAP item 1): one pass of the kernel
// over a 50 000 x 128 slab, bytes counted as slab bytes read, so MB/s
// sets against the machine's stream bandwidth and B queries sharing a
// pass shows as B times the distances at less than B times the time.
const benchRows, benchDim = 50000, 128

func benchSlab() ([]float32, [][]float32) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, benchRows*benchDim)
	for i := range data {
		data[i] = rng.Float32()
	}
	qs := make([][]float32, 16)
	for j := range qs {
		qs[j] = make([]float32, benchDim)
		for i := range qs[j] {
			qs[j][i] = rng.Float32()
		}
	}
	return data, qs
}

var benchSink float64

func BenchmarkSquaredL2(b *testing.B) {
	data, qs := benchSlab()
	b.SetBytes(int64(len(data)) * 4)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for r := 0; r < benchRows; r++ {
			benchSink += SquaredL2(qs[0], data[r*benchDim:(r+1)*benchDim])
		}
	}
}

func BenchmarkTileRow(b *testing.B) {
	data, qs := benchSlab()
	for _, width := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			tile := NewTile(Euclidean, qs[:width])
			out := make([]float64, width)
			b.SetBytes(int64(len(data)) * 4)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for r := 0; r < benchRows; r++ {
					tile.Row(data[r*benchDim:(r+1)*benchDim], out)
					benchSink += out[0]
				}
			}
		})
	}
}
