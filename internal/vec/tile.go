package vec

import "math"

// Tile is a batch of queries prepared for an exact scan: the one scan
// kernel every float linear path runs (in-RAM, vault-parallel, batch,
// mutable, tiered, and the PQ re-rank). Its contract:
//
//   - Widen once. Each query is converted to float64 when the tile is
//     built, not once per row, and Cosine's query norm is hoisted with
//     it. Row widens each row element once per register tile of up to
//     four queries and updates all of their accumulators from it.
//   - One accumulator per (query, row), advanced in index order with
//     the float64 operations SquaredL2, L1 and CosineDistance use, so
//     Row's output equals Distance(m, q, row) bit for bit at any batch
//     size. Accumulation order is a property of this kernel alone.
//   - Four rows a call where the CPU has the lanes. Block scores four
//     rows at once; on amd64 with AVX2 an assembly kernel keeps each
//     (query, row) accumulator in its own float64 lane and advances it
//     exactly as Row does, and everywhere else Block is four Rows. The
//     bits are the same either way.
//
// ChiSquared and JaccardMetric sit behind the same interface but score
// each row per query through Distance. A Tile is immutable once built
// and safe for concurrent Row and Block calls.
type Tile struct {
	metric Metric
	dim    int
	qs     [][]float32 // the batch as given (ChiSquared, JaccardMetric)
	wide   [][]float64 // each query widened (Euclidean, Manhattan, Cosine)
	norms  []float64   // Cosine: each query's sum of squares
}

// NewTile prepares qs for scanning under m. The batch must hold at
// least one query and every query the same length; like Distance it
// panics for HammingMetric. The tile keeps qs, which must not change
// while it is in use.
func NewTile(m Metric, qs [][]float32) *Tile {
	if len(qs) == 0 {
		panic("vec: empty query batch")
	}
	t := &Tile{metric: m, dim: len(qs[0]), qs: qs}
	for _, q := range qs {
		if len(q) != t.dim {
			panic("vec: dimension mismatch")
		}
	}
	switch m {
	case Euclidean, Manhattan, Cosine:
	case ChiSquared, JaccardMetric:
		return t
	default:
		panic("vec: no float kernel for metric " + m.String())
	}
	flat := make([]float64, len(qs)*t.dim)
	t.wide = make([][]float64, len(qs))
	for j, q := range qs {
		w := flat[j*t.dim : (j+1)*t.dim : (j+1)*t.dim]
		for i, v := range q {
			w[i] = float64(v)
		}
		t.wide[j] = w
	}
	if m == Cosine {
		t.norms = make([]float64, len(qs))
		for j, w := range t.wide {
			var na float64
			for _, x := range w {
				na += x * x
			}
			t.norms[j] = na
		}
	}
	return t
}

// Len returns the number of queries in the tile.
func (t *Tile) Len() int { return len(t.qs) }

// Row writes the distance from row to query j into out[j] for every
// query of the tile; out must hold at least Len elements. Each value
// equals Distance(m, qs[j], row) exactly.
func (t *Tile) Row(row []float32, out []float64) {
	t.row(row, out[:len(t.qs)], 1)
}

// row is Row writing query j's distance to out[j*stride]: the pure-Go
// kernel, and the oracle the assembly block is held to.
func (t *Tile) row(row []float32, out []float64, stride int) {
	if len(row) != t.dim {
		panic("vec: dimension mismatch")
	}
	w, m, s := t.wide, t.metric, stride
	if w == nil {
		for j, q := range t.qs {
			out[j*s] = Distance(m, q, row)
		}
		return
	}
	// nb is the row's sum of squares (Cosine); every kernel call over
	// the same row accumulates it in the same order to the same value.
	var nb float64
	j := 0
	for ; j+4 <= len(w); j += 4 {
		var a0, a1, a2, a3 float64
		switch m {
		case Euclidean:
			a0, a1, a2, a3 = l2x4(w[j], w[j+1], w[j+2], w[j+3], row)
		case Manhattan:
			a0, a1, a2, a3 = l1x4(w[j], w[j+1], w[j+2], w[j+3], row)
		default:
			a0, a1, a2, a3, nb = dotx4(w[j], w[j+1], w[j+2], w[j+3], row)
		}
		out[j*s], out[(j+1)*s], out[(j+2)*s], out[(j+3)*s] = a0, a1, a2, a3
	}
	if j+2 <= len(w) {
		var a0, a1 float64
		switch m {
		case Euclidean:
			a0, a1 = l2x2(w[j], w[j+1], row)
		case Manhattan:
			a0, a1 = l1x2(w[j], w[j+1], row)
		default:
			a0, a1, nb = dotx2(w[j], w[j+1], row)
		}
		out[j*s], out[(j+1)*s] = a0, a1
		j += 2
	}
	if j < len(w) {
		switch m {
		case Euclidean:
			out[j*s] = l2x1(w[j], row)
		case Manhattan:
			out[j*s] = l1x1(w[j], row)
		default:
			out[j*s], nb = dotx1(w[j], row)
		}
	}
	if m == Cosine {
		for j, na := range t.norms {
			out[j*s] = cosineOf(out[j*s], na, nb)
		}
	}
}

// cosineOf finishes CosineDistance from its three sums: the dot product
// and the two vectors' sums of squares.
func cosineOf(dot, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/math.Sqrt(na*nb)
}

// BlockRows is the number of rows Block scores at once: the float64
// lanes of one 256-bit register.
const BlockRows = 4

// blockAVX2 is the assembly block kernel, set once at start-up on a CPU
// that runs it (block_amd64.go); nil selects the pure-Go kernel. Tests
// flip it to hold each kernel to the other.
var blockAVX2 func(t *Tile, rows *[BlockRows][]float32, lanes, out []float64)

// Kernel names the block kernel this process scans with: "avx2" or
// "go". Both produce the same bits; a host's scan speed depends on it.
func Kernel() string {
	if blockAVX2 != nil {
		return "avx2"
	}
	return "go"
}

// Lanes returns the working memory one scanning goroutine passes to
// Block: the block's rows widened and interleaved, element by element.
// It belongs to that goroutine, never to the shared tile.
func (t *Tile) Lanes() []float64 { return make([]float64, BlockRows*t.dim) }

// Block writes the distance from rows[r] to query j into
// out[j*BlockRows+r] for every query of the tile; out must hold at
// least BlockRows*Len elements and lanes come from Lanes. Each value
// equals Distance(m, qs[j], rows[r]) exactly: a lane of the assembly
// kernel is one (query, row) accumulator advanced in index order by a
// separate subtract, multiply and add, as Row's is. The rows need not be
// adjacent in memory.
func (t *Tile) Block(rows *[BlockRows][]float32, lanes, out []float64) {
	out = out[:BlockRows*len(t.qs)]
	if blockAVX2 != nil && t.wide != nil && t.dim > 0 {
		for _, row := range rows {
			if len(row) != t.dim {
				panic("vec: dimension mismatch")
			}
		}
		blockAVX2(t, rows, lanes[:BlockRows*t.dim], out)
		return
	}
	for r, row := range rows {
		t.row(row, out[r:], BlockRows)
	}
}

// The register tiles. q* are widened queries of the row's length; each
// returns one accumulator per query, advanced in index order. The
// dot kernels also return the row's sum of squares.

func l2x1(q0 []float64, row []float32) (a0 float64) {
	q0 = q0[:len(row)]
	for i, v := range row {
		d0 := q0[i] - float64(v)
		a0 += d0 * d0
	}
	return
}

func l2x2(q0, q1 []float64, row []float32) (a0, a1 float64) {
	q0, q1 = q0[:len(row)], q1[:len(row)]
	for i, v := range row {
		x := float64(v)
		d0, d1 := q0[i]-x, q1[i]-x
		a0 += d0 * d0
		a1 += d1 * d1
	}
	return
}

func l2x4(q0, q1, q2, q3 []float64, row []float32) (a0, a1, a2, a3 float64) {
	q0, q1, q2, q3 = q0[:len(row)], q1[:len(row)], q2[:len(row)], q3[:len(row)]
	for i, v := range row {
		x := float64(v)
		d0, d1, d2, d3 := q0[i]-x, q1[i]-x, q2[i]-x, q3[i]-x
		a0 += d0 * d0
		a1 += d1 * d1
		a2 += d2 * d2
		a3 += d3 * d3
	}
	return
}

func l1x1(q0 []float64, row []float32) (a0 float64) {
	q0 = q0[:len(row)]
	for i, v := range row {
		a0 += math.Abs(q0[i] - float64(v))
	}
	return
}

func l1x2(q0, q1 []float64, row []float32) (a0, a1 float64) {
	q0, q1 = q0[:len(row)], q1[:len(row)]
	for i, v := range row {
		x := float64(v)
		a0 += math.Abs(q0[i] - x)
		a1 += math.Abs(q1[i] - x)
	}
	return
}

func l1x4(q0, q1, q2, q3 []float64, row []float32) (a0, a1, a2, a3 float64) {
	q0, q1, q2, q3 = q0[:len(row)], q1[:len(row)], q2[:len(row)], q3[:len(row)]
	for i, v := range row {
		x := float64(v)
		a0 += math.Abs(q0[i] - x)
		a1 += math.Abs(q1[i] - x)
		a2 += math.Abs(q2[i] - x)
		a3 += math.Abs(q3[i] - x)
	}
	return
}

func dotx1(q0 []float64, row []float32) (a0, nb float64) {
	q0 = q0[:len(row)]
	for i, v := range row {
		y := float64(v)
		a0 += q0[i] * y
		nb += y * y
	}
	return
}

func dotx2(q0, q1 []float64, row []float32) (a0, a1, nb float64) {
	q0, q1 = q0[:len(row)], q1[:len(row)]
	for i, v := range row {
		y := float64(v)
		a0 += q0[i] * y
		a1 += q1[i] * y
		nb += y * y
	}
	return
}

func dotx4(q0, q1, q2, q3 []float64, row []float32) (a0, a1, a2, a3, nb float64) {
	q0, q1, q2, q3 = q0[:len(row)], q1[:len(row)], q2[:len(row)], q3[:len(row)]
	for i, v := range row {
		y := float64(v)
		a0 += q0[i] * y
		a1 += q1[i] * y
		a2 += q2[i] * y
		a3 += q3[i] * y
		nb += y * y
	}
	return
}
