package vec

// The AVX2 form of Tile.Block (block_amd64.s): four rows ride in the
// four float64 lanes of a 256-bit register. A block runs in two phases.
// widen8 transposes and converts the four rows once into lanes, element
// i of every row side by side, so the scan loads one register per
// element and never converts again; then q4, per four queries, and q1,
// per query left over and for a batch of one, broadcast q[i] across the
// register and advance the four (query, row) accumulators it holds.

func init() {
	if hasAVX2() {
		cpuAVX2 = true
		blockAVX2 = (*Tile).blockAVX2
	}
}

//go:noescape
func hasAVX2() bool

//go:noescape
func prefetch(p *float32, n int)

// Prefetch asks for every 64-byte line of row to be brought into cache:
// a hint, never a read, so it cannot fault and changes no result. A
// scan that knows which scattered row it reads next calls it a few rows
// ahead.
func Prefetch(row []float32) {
	if len(row) > 0 {
		prefetch(&row[0], 4*len(row))
	}
}

//go:noescape
func widen8(r0, r1, r2, r3 *float32, n int, lanes *float64, ahead int)

//go:noescape
func q4(op int, lanes, q0, q1, q2, q3 *float64, dim int, out *float64)

//go:noescape
func q1(op int, lanes, q *float64, dim int, out *float64)

// opSquares is q1's fourth op: each row's sum of squares.
const opSquares = 3

// blockAVX2 is Block for a tile with widened queries, dim >= 1, rows of
// that length, len(lanes) == 4*dim and len(out) == 4*Len.
func (t *Tile) blockAVX2(rows *[BlockRows][]float32, lanes, out []float64) {
	dim := t.dim
	// The assembly widens whole groups of eight elements and never reads
	// past a row; the conversion is exact, so Go finishes the tail. In a
	// slab the next block starts one block's bytes on: the scan is a few
	// hundred nanoseconds a block, too short for the hardware to have the
	// next one ready (measured: a fifth of the scan's time in misses).
	whole := dim &^ 7
	if whole > 0 {
		widen8(&rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], whole, &lanes[0], BlockRows*dim*4)
	}
	for i := whole; i < dim; i++ {
		for r, row := range rows {
			lanes[BlockRows*i+r] = float64(row[i])
		}
	}
	w, op, l := t.wide, int(t.metric), &lanes[0]
	j := 0
	for ; j+4 <= len(w); j += 4 {
		q4(op, l, &w[j][0], &w[j+1][0], &w[j+2][0], &w[j+3][0], dim, &out[BlockRows*j])
	}
	for ; j < len(w); j++ {
		q1(op, l, &w[j][0], dim, &out[BlockRows*j])
	}
	if t.metric == Cosine {
		var nb [BlockRows]float64
		q1(opSquares, l, l, dim, &nb[0])
		for j, na := range t.norms {
			o := out[BlockRows*j:][:BlockRows]
			for r := range o {
				o[r] = cosineOf(o[r], na, nb[r])
			}
		}
	}
}
