package pq

import "ssam/internal/vec"

// Asymmetric distance computation. Table turns a query into an M×Ks
// lookup table of query-to-centroid partial distances; Codes stores
// the database's code bytes in cache-blocked, block-transposed form;
// Codes.Scan streams them against the table. The layout and the scan
// kernel are the two halves of the thesis's cache codesign argument:
//
//	block 0 (BlockRows rows)            block 1 ...
//	┌──────────────┬──────────────┬───┐
//	│ j=0 codes    │ j=1 codes    │...│   each column contiguous,
//	│ row 0..B-1   │ row 0..B-1   │   │   one byte per row
//	└──────────────┴──────────────┴───┘
//
// Within a block the inner loop touches one subquantizer's column and
// one 1 KiB lookup table at a time — both stay resident in L1 — and
// the loop body compiles to load/add with no bounds checks: the table
// is viewed as a *[Ks]float32 so the byte index needs no check, and
// the column is re-sliced to the accumulator's length so the compiler
// proves the row index in range.

// BlockRows is the cache-block height: per inner loop the kernel
// touches BlockRows code bytes and BlockRows float32 accumulators
// (~1.25 KiB) against one 1 KiB table slice, comfortably inside L1.
const BlockRows = 256

// colsPerPass is how many subquantizer columns Scan folds into one
// walk over the accumulator block: each pass loads and stores every
// accumulator once, so four columns a pass cut that traffic by four,
// and four column pointers, four table pointers and the accumulator
// still fit the register file.
const colsPerPass = 4

// Table fills dst (len >= M*Ks, allocated when nil) with the ADC
// lookup table for q: dst[j*Ks+c] is the partial distance between q's
// j-th subvector and centroid c of subquantizer j. Supported metrics
// are the additive ones — Euclidean (squared L2) and Manhattan (L1);
// cosine callers normalize vectors at encode time and query with
// Euclidean tables (for unit vectors ||a-b||² = 2·(1-cos)).
func (cb *Codebook) Table(metric vec.Metric, q []float32, dst []float32) []float32 {
	if len(q) != cb.dim {
		panic("pq: dimension mismatch")
	}
	if dst == nil {
		dst = make([]float32, cb.m*Ks)
	}
	for j := 0; j < cb.m; j++ {
		lo, hi := cb.starts[j], cb.starts[j+1]
		sub := hi - lo
		qs := q[lo:hi]
		cents := cb.cents[Ks*lo : Ks*hi]
		out := dst[j*Ks : (j+1)*Ks]
		switch metric {
		case vec.Euclidean:
			for c := 0; c < Ks; c++ {
				cent := cents[c*sub : (c+1)*sub]
				var acc float64
				for d := range cent {
					diff := float64(qs[d]) - float64(cent[d])
					acc += diff * diff
				}
				out[c] = float32(acc)
			}
		case vec.Manhattan:
			for c := 0; c < Ks; c++ {
				cent := cents[c*sub : (c+1)*sub]
				var acc float64
				for d := range cent {
					diff := float64(qs[d]) - float64(cent[d])
					if diff < 0 {
						diff = -diff
					}
					acc += diff
				}
				out[c] = float32(acc)
			}
		default:
			panic("pq: no ADC table for metric " + metric.String())
		}
	}
	return dst
}

// Codes is a code database in the blocked layout above: rows are
// grouped into blocks of BlockRows, and within a block subquantizer
// j's bytes are stored column-contiguous. The final partial block uses
// its own row count as the column stride, so the buffer is exactly n*M
// bytes with no padding.
type Codes struct {
	m, n int
	buf  []byte
}

// Pack converts n*M row-major code bytes (as produced by Encode) into
// the blocked layout.
func Pack(codes []byte, m int) *Codes {
	if m <= 0 || len(codes)%m != 0 {
		panic("pq: code length not a multiple of m")
	}
	n := len(codes) / m
	buf := make([]byte, len(codes))
	for lo := 0; lo < n; lo += BlockRows {
		rows := min(BlockRows, n-lo)
		base := lo * m
		for j := 0; j < m; j++ {
			col := buf[base+j*rows : base+(j+1)*rows]
			for r := range col {
				col[r] = codes[(lo+r)*m+j]
			}
		}
	}
	return &Codes{m: m, n: n, buf: buf}
}

// N returns the row count.
func (c *Codes) N() int { return c.n }

// M returns the code width in bytes.
func (c *Codes) M() int { return c.m }

// Bytes returns the total size of the packed code buffer.
func (c *Codes) Bytes() int { return len(c.buf) }

// Row gathers row i's M code bytes out of the blocked layout into dst
// (len >= M), returning dst. It is the layout's inverse, used by tests
// and by exact re-rank debugging; the hot path never un-transposes.
func (c *Codes) Row(i int, dst []byte) []byte {
	blo := i - i%BlockRows
	rows := min(BlockRows, c.n-blo)
	base := blo * c.m
	for j := 0; j < c.m; j++ {
		dst[j] = c.buf[base+j*rows+(i-blo)]
	}
	return dst[:c.m]
}

// Scan computes ADC distances for rows [lo, hi) against the lookup
// table lut (len >= M*Ks) and hands them to fn in block-sized runs:
// fn(base, dists) covers rows base..base+len(dists)-1. Distances are
// float32 sums of table entries in ascending subquantizer order, so a
// row's distance is independent of how [lo, hi) partitions the
// database — the property vault-parallel scans rely on for bit-exact
// merges. The dists slice is reused across calls; fn must not retain
// it.
func (c *Codes) Scan(lut []float32, lo, hi int, fn func(base int, dists []float32)) {
	if len(lut) < c.m*Ks {
		panic("pq: lookup table too short")
	}
	if lo < 0 || hi > c.n || lo > hi {
		panic("pq: scan range out of bounds")
	}
	var accBuf [BlockRows]float32
	tab := func(j int) *[Ks]float32 { return (*[Ks]float32)(lut[j*Ks:]) }
	for lo < hi {
		blo := lo - lo%BlockRows
		rows := min(BlockRows, c.n-blo)
		cLo := lo - blo
		cHi := min(hi-blo, rows)
		acc := accBuf[:cHi-cLo]
		base := blo * c.m
		col := func(j int) []byte { return c.buf[base+j*rows+cLo:][:len(acc)] }
		// The first pass takes the M mod 4 odd columns (all four when
		// there are none) and assigns; every later pass adds four.
		w := (c.m-1)%colsPerPass + 1
		switch w {
		case 1:
			l0, c0 := tab(0), col(0)
			for r := range acc {
				acc[r] = l0[c0[r]]
			}
		case 2:
			l0, l1, c0, c1 := tab(0), tab(1), col(0), col(1)
			for r := range acc {
				acc[r] = l0[c0[r]] + l1[c1[r]]
			}
		case 3:
			l0, l1, l2, c0, c1, c2 := tab(0), tab(1), tab(2), col(0), col(1), col(2)
			for r := range acc {
				acc[r] = l0[c0[r]] + l1[c1[r]] + l2[c2[r]]
			}
		default:
			l0, l1, l2, l3, c0, c1, c2, c3 := tab(0), tab(1), tab(2), tab(3), col(0), col(1), col(2), col(3)
			for r := range acc {
				acc[r] = l0[c0[r]] + l1[c1[r]] + l2[c2[r]] + l3[c3[r]]
			}
		}
		for j := w; j < c.m; j += colsPerPass {
			l0, l1, l2, l3, c0, c1, c2, c3 := tab(j), tab(j+1), tab(j+2), tab(j+3), col(j), col(j+1), col(j+2), col(j+3)
			for r := range acc {
				acc[r] = acc[r] + l0[c0[r]] + l1[c1[r]] + l2[c2[r]] + l3[c3[r]]
			}
		}
		fn(lo, acc)
		lo = blo + cHi
	}
}

// ADC computes one code's distance against a lookup table exactly the
// way Scan does — float32 accumulation in subquantizer order — so
// tests can pin the blocked kernel against this reference.
func ADC(lut []float32, code []byte) float32 {
	acc := lut[code[0]]
	for j := 1; j < len(code); j++ {
		acc += lut[j*Ks+int(code[j])]
	}
	return acc
}
