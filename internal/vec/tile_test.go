package vec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

var floatMetrics = []Metric{Euclidean, Manhattan, Cosine, ChiSquared, JaccardMetric}

// eachKernel runs f once per block kernel: the pure-Go one, then the
// assembly one, skipped on a CPU (or an architecture) that has none.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	asm := blockAVX2
	defer func() { blockAVX2 = asm }()
	t.Run("go", func(t *testing.T) {
		blockAVX2 = nil
		f(t)
	})
	t.Run("avx2", func(t *testing.T) {
		if asm == nil {
			t.Skip("no AVX2 kernel on this CPU")
		}
		blockAVX2 = asm
		f(t)
	})
}

// vecOf draws a vector, one in eight of them zero (Cosine's and
// Jaccard's special cases).
func vecOf(rng *rand.Rand, dim int, nonneg bool) []float32 {
	v := make([]float32, dim)
	if rng.Intn(8) == 0 {
		return v
	}
	for i := range v {
		v[i] = float32(rng.NormFloat64() * 3)
		if nonneg && v[i] < 0 {
			v[i] = -v[i]
		}
	}
	return v
}

// TestTileRowEqualsDistance is the kernel's contract: at every dimension
// and tile width, for every float metric, Row's output is Distance's,
// by exact float64 equality — zero vectors (Cosine's and Jaccard's
// special cases) on either side included.
func TestTileRowEqualsDistance(t *testing.T) {
	eachKernel(t, testTileRowEqualsDistance)
}

func testTileRowEqualsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range floatMetrics {
		nonneg := m == ChiSquared || m == JaccardMetric
		for dim := 1; dim <= 67; dim++ {
			for width := 1; width <= 17; width++ {
				qs := make([][]float32, width)
				for j := range qs {
					qs[j] = vecOf(rng, dim, nonneg)
				}
				tile := NewTile(m, qs)
				if tile.Len() != width {
					t.Fatalf("Len = %d, want %d", tile.Len(), width)
				}
				out := make([]float64, width+1)
				for r := 0; r < 3; r++ {
					row := vecOf(rng, dim, nonneg)
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

// TestTileBlockEqualsDistance holds Block to the same contract as Row,
// on both kernels: every metric, every dim % 4 and width % 4, zero
// vectors, rows that start at odd float32 offsets of a slab (so never
// 16- or 32-byte aligned as a rule) and are not adjacent in memory.
func TestTileBlockEqualsDistance(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		dims := []int{128, 960}
		for dim := 1; dim <= 67; dim++ {
			dims = append(dims, dim)
		}
		for _, m := range floatMetrics {
			nonneg := m == ChiSquared || m == JaccardMetric
			for _, dim := range dims {
				// Four rows at odd offsets, each apart from the next, in
				// an order that is not the slab's.
				slab := make([]float32, 4*(dim+3)+1)
				var rows [BlockRows][]float32
				for r, at := range []int{2, 0, 3, 1} {
					off := 1 + at*(dim+3) + at%2*2
					rows[r] = slab[off : off+dim : off+dim]
				}
				for width := 1; width <= 17; width++ {
					if dim > 67 && width > 5 {
						break
					}
					qs := make([][]float32, width)
					for j := range qs {
						qs[j] = vecOf(rng, dim, nonneg)
					}
					for r := range rows {
						copy(rows[r], vecOf(rng, dim, nonneg))
					}
					tile := NewTile(m, qs)
					out := make([]float64, BlockRows*width+1)
					out[BlockRows*width] = -1
					tile.Block(&rows, tile.Lanes(), out)
					for j, q := range qs {
						for r, row := range rows {
							if got, want := out[BlockRows*j+r], Distance(m, q, row); got != want {
								t.Fatalf("%v dim=%d width=%d query %d row %d: Block = %v, Distance = %v", m, dim, width, j, r, got, want)
							}
						}
					}
					if out[BlockRows*width] != -1 {
						t.Fatalf("%v dim=%d width=%d: Block wrote past 4*Len", m, dim, width)
					}
				}
			}
		}
	})
}

// sameBits is == on the bit patterns, with every NaN equal to every
// other: the kernels may differ in which NaN payload an operation with
// two NaN operands keeps, and nothing downstream looks.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzTileBlock sets the assembly block against the pure-Go one over
// arbitrary float32 bit patterns — denormals, -0, infinities, NaNs —
// for the three metrics the assembly scores. The bytes fill four rows
// and then the queries, dim elements each.
func FuzzTileBlock(f *testing.F) {
	le := func(vals ...uint32) []byte {
		var b []byte
		for _, v := range vals {
			b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return b
	}
	const nan, inf, ninf, negZero, denormal, maxFinite = 0x7fc00000, 0x7f800000, 0xff800000, 0x80000000, 1, 0x7f7fffff
	one := math.Float32bits(1)
	f.Add(uint8(1), uint8(1), le(one, negZero, denormal, inf, nan))
	f.Add(uint8(5), uint8(3), le(maxFinite, maxFinite, ninf, inf, nan, negZero, denormal, 0x80000001, one, 0xbf800000))
	f.Add(uint8(4), uint8(4), le(0x00800000, 0x007fffff, 0x7f7fffff, 0xff7fffff, negZero, 0, nan, 0xffc00001))
	f.Add(uint8(7), uint8(17), le(one, 0x40000000, 0x40400000, inf, ninf))
	f.Add(uint8(0), uint8(2), le(one))
	f.Fuzz(func(t *testing.T, dim8, width8 uint8, raw []byte) {
		if blockAVX2 == nil {
			t.Skip("no AVX2 kernel on this CPU")
		}
		dim, width := int(dim8%70), int(width8%18)+1
		next := func() []float32 {
			v := make([]float32, dim)
			for i := range v {
				var bits uint32
				for b := 0; b < 4 && len(raw) > 0; b++ {
					bits |= uint32(raw[0]) << (8 * b)
					raw = raw[1:]
				}
				v[i] = math.Float32frombits(bits)
			}
			return v
		}
		var rows [BlockRows][]float32
		for r := range rows {
			rows[r] = next()
		}
		qs := make([][]float32, width)
		for j := range qs {
			qs[j] = next()
		}
		for _, m := range []Metric{Euclidean, Manhattan, Cosine} {
			tile := NewTile(m, qs)
			got, want := make([]float64, BlockRows*width), make([]float64, BlockRows*width)
			tile.Block(&rows, tile.Lanes(), got)
			asm := blockAVX2
			blockAVX2 = nil
			tile.Block(&rows, tile.Lanes(), want)
			blockAVX2 = asm
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%v dim=%d width=%d query %d row %d: assembly %x, Go %x", m, dim, width, i/BlockRows, i%BlockRows,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

// TestTileReset reuses one tile across batches that grow, shrink,
// change width and change metric: each Reset must score as a NewTile of
// the same batch, bit for bit, whatever the tile held before.
func TestTileReset(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		batch := func(width, dim int) [][]float32 {
			qs := make([][]float32, width)
			for j := range qs {
				qs[j] = make([]float32, dim)
				for i := range qs[j] {
					qs[j][i] = rng.Float32()
				}
			}
			return qs
		}
		var reused Tile
		for _, c := range []struct {
			m          Metric
			width, dim int
		}{{Cosine, 5, 9}, {Euclidean, 2, 9}, {Manhattan, 7, 3}, {ChiSquared, 3, 3}, {Cosine, 1, 17}, {Euclidean, 9, 17}} {
			qs := batch(c.width, c.dim)
			rows := batch(BlockRows, c.dim)
			reused.Reset(c.m, qs)
			fresh := NewTile(c.m, qs)
			got, want := make([]float64, BlockRows*c.width), make([]float64, BlockRows*c.width)
			reused.Block((*[BlockRows][]float32)(rows), reused.Lanes(), got)
			fresh.Block((*[BlockRows][]float32)(rows), fresh.Lanes(), want)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%v width=%d dim=%d query %d row %d: reset tile %v, new tile %v", c.m, c.width, c.dim, i/BlockRows, i%BlockRows, got[i], want[i])
				}
			}
		}
	})
}

func TestTilePanics(t *testing.T) {
	eachKernel(t, testTilePanics)
}

func testTilePanics(t *testing.T) {
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
		mustPanic(m.String()+" short row in a block", func() {
			row := []float32{1, 2, 3}
			tile.Block(&[BlockRows][]float32{row, row, row[:2], row}, tile.Lanes(), make([]float64, BlockRows))
		})
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

// BenchmarkTileBlock is BenchmarkTileRow through Block, once per kernel:
// the same slab, four rows a call. ns/pair-elem is the time per element
// of one (query, row) pair, the unit DESIGN.md §16 budgets the scan in.
func BenchmarkTileBlock(b *testing.B) {
	data, qs := benchSlab()
	asm := blockAVX2
	defer func() { blockAVX2 = asm }()
	for _, kernel := range []string{"go", "avx2"} {
		if kernel == "avx2" && asm == nil {
			continue
		}
		for _, width := range []int{1, 2, 4, 16} {
			b.Run(fmt.Sprintf("%s/B=%d", kernel, width), func(b *testing.B) {
				blockAVX2 = nil
				if kernel == "avx2" {
					blockAVX2 = asm
				}
				tile := NewTile(Euclidean, qs[:width])
				lanes, out := tile.Lanes(), make([]float64, BlockRows*width)
				var rows [BlockRows][]float32
				b.SetBytes(int64(len(data)) * 4)
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for at := 0; at < len(data); at += BlockRows * benchDim {
						for r := range rows {
							rows[r] = data[at+r*benchDim : at+(r+1)*benchDim]
						}
						tile.Block(&rows, lanes, out)
						benchSink += out[0]
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)*width), "ns/pair-elem")
			})
		}
	}
}
