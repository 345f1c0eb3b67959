package pq

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// goldenDigest hashes a codebook's centroids (NaNs canonicalized, so
// the digest does not depend on which NaN payload the CPU propagates)
// followed by the codes Encode gives data.
func goldenDigest(cb *Codebook, data []float32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range cb.cents {
		bits := math.Float32bits(f)
		if f != f {
			bits = 0x7fc00000
		}
		binary.LittleEndian.PutUint32(b[:], bits)
		h.Write(b[:])
	}
	h.Write(cb.Encode(data))
	return fmt.Sprintf("%016x", h.Sum64())
}

// withSpecials returns data with NaN and ±Inf written into a few rows.
func withSpecials(data []float32, dim int) []float32 {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, s := range []struct {
		row, d int
		v      float32
	}{
		{3, 0, nan}, {3, 2, inf}, {3, 5, -inf},
		{10, 0, inf}, {10, 1, inf},
		{11, dim - 1, -inf},
		{20, dim - 2, nan}, {20, dim - 1, nan},
	} {
		data[s.row*dim+s.d] = s.v
	}
	return data
}

// TestTrainEncodeGolden pins Train's centroids and Encode's codes bit
// for bit on shapes that reach every corner of the assignment step:
// subspaces narrower than the kernel's widening step, a single
// subspace, ties between duplicate centroids, all-equal rows, NaN and
// ±Inf coordinates, and row counts that leave a partial block or spill
// one row into a second chunk. The digests were taken from the scalar
// one-goroutine k-means (nearestCentroid) this package ran before
// training and encoding went through vec.Tile, so they hold the kernel
// and the fan-out to that output at any GOMAXPROCS.
func TestTrainEncodeGolden(t *testing.T) {
	equal := make([]float32, 500*6)
	for i := range equal {
		equal[i] = 3.25
	}
	cases := []struct {
		name string
		data []float32
		dim  int
		p    Params
		want string
	}{
		{"2000x128 M=8", genData(101, 2000, 128), 128, Params{M: 8, Seed: 1}, "ad2027477d4f5b07"},
		{"dim 9 M=4", genData(102, 700, 9), 9, Params{M: 4, Sample: 500, Iterations: 8, Seed: 2}, "31c78aa3141ea3fc"},
		{"dim 13 M=1", genData(103, 600, 13), 13, Params{M: 1, Iterations: 6, Seed: 3}, "29895621ad1d8cde"},
		{"sample < Ks", genData(104, 900, 8), 8, Params{M: 2, Sample: 100, Iterations: 5, Seed: 4}, "ea742761c970ec95"},
		{"all equal", equal, 6, Params{M: 2, Sample: 256, Iterations: 3}, "44b00158cc49e745"},
		{"NaN and Inf", withSpecials(genData(105, 600, 8), 8), 8, Params{M: 4, Sample: 400, Iterations: 6, Seed: 5}, "d58c196816b13a33"},
		{"n=1", genData(111, 1, 16), 16, Params{M: 4, Iterations: 4, Seed: 6}, "5b6ac5da330399f5"},
		{"n=3", genData(113, 3, 16), 16, Params{M: 4, Iterations: 4, Seed: 6}, "8ec10111523b8bf0"},
		{"n=5", genData(115, 5, 16), 16, Params{M: 4, Iterations: 4, Seed: 6}, "870907cb61a37080"},
		{"n=chunk+1", genData(117, chunkRows+1, 16), 16, Params{M: 4, Iterations: 4, Seed: 6}, "b4d2954b19dbd891"},
	}
	for _, c := range cases {
		cb, err := Train(c.data, c.dim, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := goldenDigest(cb, c.data); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
