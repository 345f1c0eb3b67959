package pq

import "ssam/internal/vec"

// The AVX2 form of Codes.Scan (scan_amd64.s): eight rows ride in the
// eight float32 lanes of a 256-bit register. For each subquantizer in
// ascending order the kernel widens the eight rows' code bytes to
// indices and gathers their table entries, the first column into the
// sums and every later one added to them, so each lane is ADC's
// left-to-right float32 sum of its row.

func init() {
	if vec.AVX2() {
		scanAVX2 = adcAVX2
	}
}

//go:noescape
func adc8(lut *float32, col *byte, stride, m, n int, acc *float32)

// adcAVX2 writes into acc, len(acc) a positive multiple of 8, the
// distances of the rows whose column-0 codes start at col[0], their
// column j at col[j*stride]: the contract of scanGo.
func adcAVX2(lut []float32, col []byte, stride, m int, acc []float32) {
	_ = col[(m-1)*stride+len(acc)-1]
	_ = lut[m*Ks-1]
	adc8(&lut[0], &col[0], stride, m, len(acc), &acc[0])
}
