package pq

import (
	"encoding/binary"
	"math"
	"testing"

	"ssam/internal/vec"
)

// tableOracle is Table's scalar form: for each centroid a float64 sum
// over the subvector's dimensions in order, each difference squared
// (Euclidean) or made positive (Manhattan), rounded once to float32.
func tableOracle(cb *Codebook, metric vec.Metric, q []float32) []float32 {
	lut := make([]float32, cb.m*Ks)
	for j := 0; j < cb.m; j++ {
		lo, hi := cb.starts[j], cb.starts[j+1]
		for c := 0; c < Ks; c++ {
			cent := cb.Centroid(j, c)
			var acc float64
			for d := range cent {
				diff := float64(q[lo+d]) - float64(cent[d])
				if metric == vec.Euclidean {
					diff *= diff
				} else if diff < 0 {
					diff = -diff
				}
				acc += diff
			}
			lut[j*Ks+c] = float32(acc)
		}
		_ = hi
	}
	return lut
}

// sameBits is == on the bit patterns, with every NaN equal to every
// other. Which payload a NaN + NaN keeps is its first operand's, and
// the compiler picks which operand of ADC's sum goes first; a negated
// NaN keeps its sign, where Block's magnitude clears it.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// Table scores centroids through vec.Tile.Block; it must give the
// scalar loop's bits for both metrics at every subvector width the
// widening splits on (narrower than 8, a multiple of 8, and between),
// with dims % M != 0 so the subspaces differ in width, and with queries
// and centroids holding -0, subnormals, infinities and NaNs.
func TestTableMatchesOracle(t *testing.T) {
	specials := []float32{float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x807fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32, 3}
	for _, c := range []struct{ dim, m int }{{13, 1}, {20, 3}, {67, 8}, {40, 13}, {130, 8}, {9, 4}} {
		data := genData(int64(c.dim), 300, c.dim)
		cb, err := Train(data, c.dim, Params{M: c.m, Sample: 300, Iterations: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := genData(int64(c.m), 1, c.dim)
		special := append([]float32(nil), q...)
		for i := range special {
			if i%3 == 0 {
				special[i] = specials[i%len(specials)]
			}
		}
		for i := 0; i < len(cb.cents); i += 97 {
			cb.cents[i] = specials[i%len(specials)]
		}
		for _, m := range []vec.Metric{vec.Euclidean, vec.Manhattan} {
			for _, q := range [][]float32{q, special} {
				got, want := cb.Table(m, q, nil), tableOracle(cb, m, q)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("dim=%d M=%d %v: table[%d][%d] = %x, scalar %x", c.dim, c.m, m, i/Ks, i%Ks,
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// scanSizes are the row counts FuzzCodesScan picks from: each side of
// one and two groups of eight, of a block and of a block and a group.
var scanSizes = []int{1, 7, 8, 9, 15, 16, 17, 24, 255, 256, 257, 264, 271, 520}

// FuzzCodesScan holds the assembly ADC kernel and the pure-Go one to the
// same bits, NaN payloads included, on every row of any range [lo, hi)
// of a database of M = 1…16 bytes a row, over arbitrary codes and table
// bit patterns — NaNs, infinities, -0, subnormals — and both to pq.ADC
// (sameBits). The bytes are read in a cycle: the codes from them (each
// pass through offset by its count, so short inputs still address the
// whole table), then the table, four bytes a float.
func FuzzCodesScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, m8, n8 uint8, lo16, hi16 uint16, raw []byte) {
		if len(raw) == 0 {
			raw = []byte{0}
		}
		m, n := int(m8%16)+1, scanSizes[int(n8)%len(scanSizes)]
		lo := int(lo16) % (n + 1)
		hi := lo + int(hi16)%(n-lo+1)
		codes := make([]byte, n*m)
		for i := range codes {
			codes[i] = raw[i%len(raw)] + byte(i/len(raw))
		}
		lut := make([]float32, m*Ks)
		var word [4]byte
		for i := range lut {
			for b := range word {
				word[b] = raw[(4*i+b)%len(raw)]
			}
			lut[i] = math.Float32frombits(binary.LittleEndian.Uint32(word[:]))
		}
		c := Pack(codes, m)
		scan := func() []float32 {
			dists := make([]float32, 0, hi-lo)
			c.Scan(lut, lo, hi, func(base int, run []float32) {
				if base != lo+len(dists) {
					t.Fatalf("M=%d n=%d [%d, %d): run at %d, want %d", m, n, lo, hi, base, lo+len(dists))
				}
				dists = append(dists, run...)
			})
			if len(dists) != hi-lo {
				t.Fatalf("M=%d n=%d [%d, %d): scan stopped at %d", m, n, lo, hi, lo+len(dists))
			}
			return dists
		}
		asm := scanAVX2
		defer func() { scanAVX2 = asm }()
		scanAVX2 = nil
		want := scan()
		for i, d := range want {
			row := lo + i
			if adc := ADC(lut, codes[row*m:(row+1)*m]); !sameBits(d, adc) {
				t.Fatalf("M=%d n=%d [%d, %d) row %d: Go kernel %x, ADC %x", m, n, lo, hi, row, math.Float32bits(d), math.Float32bits(adc))
			}
		}
		if asm == nil {
			return
		}
		scanAVX2 = asm
		for i, d := range scan() {
			if math.Float32bits(d) != math.Float32bits(want[i]) {
				t.Fatalf("M=%d n=%d [%d, %d) row %d: assembly %x, Go %x", m, n, lo, hi, lo+i, math.Float32bits(d), math.Float32bits(want[i]))
			}
		}
	})
}
