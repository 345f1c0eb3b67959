package pq

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ssam/internal/par"
	"ssam/internal/vec"
)

func genData(seed int64, n, dim int) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return data
}

func TestSubspaceStarts(t *testing.T) {
	cases := []struct {
		dim, m int
		want   []int
	}{
		{8, 4, []int{0, 2, 4, 6, 8}},
		{10, 4, []int{0, 3, 6, 8, 10}}, // first dim%m subspaces one wider
		{5, 5, []int{0, 1, 2, 3, 4, 5}},
		{7, 1, []int{0, 7}},
	}
	for _, c := range cases {
		got := subspaceStarts(c.dim, c.m)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("subspaceStarts(%d, %d) = %v, want %v", c.dim, c.m, got, c.want)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	data := genData(1, 900, 16)
	p := Params{M: 4, Sample: 512, Iterations: 6, Seed: 42}
	a, err := Train(data, 16, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, 16, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same data and params produced different codebooks")
	}
	ca, cbb := a.Encode(data), b.Encode(data)
	if !reflect.DeepEqual(ca, cbb) {
		t.Fatal("same codebooks produced different codes")
	}
	// A different seed should (overwhelmingly) produce a different book.
	p.Seed = 43
	c, err := Train(data, 16, p)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.cents, c.cents) {
		t.Fatal("different seeds produced identical centroids")
	}
}

func TestTrainErrors(t *testing.T) {
	data := genData(2, 10, 4)
	cases := []struct {
		name string
		data []float32
		dim  int
		p    Params
	}{
		{"bad dim", data, 3, Params{}},
		{"zero dim", data, 0, Params{}},
		{"empty", nil, 4, Params{}},
		{"M too large", data, 4, Params{M: 5}},
		{"M negative", data, 4, Params{M: -1}},
		{"negative sample", data, 4, Params{M: 2, Sample: -1}},
		{"negative iterations", data, 4, Params{M: 2, Iterations: -1}},
	}
	for _, c := range cases {
		if _, err := Train(c.data, c.dim, c.p); err == nil {
			t.Errorf("%s: Train accepted invalid input", c.name)
		}
	}
}

func TestDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.M != DefaultM || p.Sample != DefaultSample || p.Iterations != DefaultIterations {
		t.Fatalf("withDefaults = %+v", p)
	}
	data := genData(3, 50, 8)
	cb, err := Train(data, 8, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if cb.M() != DefaultM || cb.Dim() != 8 {
		t.Fatalf("M=%d Dim=%d", cb.M(), cb.Dim())
	}
	total := 0
	for j := 0; j < cb.M(); j++ {
		total += cb.SubDim(j)
	}
	if total != 8 {
		t.Fatalf("subspace widths sum to %d, want 8", total)
	}
}

// With n <= Ks every training point gets its own centroid, so
// quantization is lossless: codes decode back to the original rows
// bit-exactly, and encode maps each row to a centroid equal to it.
func TestLosslessWhenFewRows(t *testing.T) {
	const n, dim = 200, 12
	data := genData(4, n, dim)
	cb, err := Train(data, dim, Params{M: 3, Sample: n, Iterations: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	codes := cb.Encode(data)
	dst := make([]float32, dim)
	for i := 0; i < n; i++ {
		got := cb.Decode(codes[i*cb.M():(i+1)*cb.M()], dst)
		want := data[i*dim : (i+1)*dim]
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("row %d dim %d: decoded %v, want %v", i, d, got[d], want[d])
			}
		}
	}
}

// EncodeVec must pick the argmin centroid per subspace; pin it against
// a brute-force scan through Centroid views.
func TestEncodePicksNearestCentroid(t *testing.T) {
	data := genData(5, 600, 10)
	cb, err := Train(data, 10, Params{M: 4, Sample: 300, Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	code := make([]byte, cb.M())
	for i := 0; i < 50; i++ {
		v := data[i*10 : (i+1)*10]
		cb.EncodeVec(v, code)
		for j := 0; j < cb.M(); j++ {
			lo, hi := cb.starts[j], cb.starts[j+1]
			best, bestD := 0, math.Inf(1)
			for c := 0; c < Ks; c++ {
				d := vec.SquaredL2(v[lo:hi], cb.Centroid(j, c))
				if d < bestD {
					best, bestD = c, d
				}
			}
			if int(code[j]) != best {
				got := vec.SquaredL2(v[lo:hi], cb.Centroid(j, int(code[j])))
				if got != bestD {
					t.Fatalf("row %d sub %d: encoded %d (d=%v), nearest %d (d=%v)",
						i, j, code[j], got, best, bestD)
				}
			}
		}
	}
}

func TestTableMatchesBruteForce(t *testing.T) {
	data := genData(6, 400, 9) // 9 dims, M=4 → uneven widths 3,2,2,2
	cb, err := Train(data, 9, Params{M: 4, Sample: 256, Iterations: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := data[:9]
	for _, m := range []vec.Metric{vec.Euclidean, vec.Manhattan} {
		lut := cb.Table(m, q, nil)
		if len(lut) != cb.M()*Ks {
			t.Fatalf("table length %d", len(lut))
		}
		for j := 0; j < cb.M(); j++ {
			lo, hi := cb.starts[j], cb.starts[j+1]
			for c := 0; c < Ks; c++ {
				want := float32(vec.Distance(m, q[lo:hi], cb.Centroid(j, c)))
				if lut[j*Ks+c] != want {
					t.Fatalf("%v table[%d][%d] = %v, want %v", m, j, c, lut[j*Ks+c], want)
				}
			}
		}
	}
	// Reusing a caller-provided buffer must return the same table.
	buf := make([]float32, cb.M()*Ks)
	got := cb.Table(vec.Euclidean, q, buf)
	want := cb.Table(vec.Euclidean, q, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("caller-provided buffer produced a different table")
	}
}

func TestTableUnsupportedMetricPanics(t *testing.T) {
	data := genData(7, 300, 8)
	cb, err := Train(data, 8, Params{M: 2, Sample: 128, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Table accepted cosine")
		}
	}()
	cb.Table(vec.Cosine, data[:8], nil)
}

func TestTableDimMismatchPanics(t *testing.T) {
	data := genData(7, 300, 8)
	cb, err := Train(data, 8, Params{M: 2, Sample: 128, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Table accepted a short query")
		}
	}()
	cb.Table(vec.Euclidean, data[:4], nil)
}

// When quantization is lossless (n <= Ks), the ADC distance equals the
// exact distance up to float32 rounding of the partial sums.
func TestADCMatchesExactWhenLossless(t *testing.T) {
	const n, dim = 150, 8
	data := genData(8, n, dim)
	cb, err := Train(data, dim, Params{M: 4, Sample: n, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	codes := cb.Encode(data)
	q := genData(9, 1, dim)
	lut := cb.Table(vec.Euclidean, q, nil)
	for i := 0; i < n; i++ {
		adc := float64(ADC(lut, codes[i*cb.M():(i+1)*cb.M()]))
		exact := vec.SquaredL2(q, data[i*dim:(i+1)*dim])
		if diff := math.Abs(adc - exact); diff > 1e-4*(1+exact) {
			t.Fatalf("row %d: ADC %v vs exact %v", i, adc, exact)
		}
	}
}

func TestPackRowRoundTrip(t *testing.T) {
	for _, n := range []int{1, 5, 255, 256, 257, 512, 1000} {
		const m = 3
		codes := make([]byte, n*m)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range codes {
			codes[i] = byte(rng.Intn(256))
		}
		c := Pack(codes, m)
		if c.N() != n || c.M() != m || c.Bytes() != n*m {
			t.Fatalf("n=%d: N=%d M=%d Bytes=%d", n, c.N(), c.M(), c.Bytes())
		}
		dst := make([]byte, m)
		for i := 0; i < n; i++ {
			got := c.Row(i, dst)
			for j := 0; j < m; j++ {
				if got[j] != codes[i*m+j] {
					t.Fatalf("n=%d row %d byte %d: %d != %d", n, i, j, got[j], codes[i*m+j])
				}
			}
		}
	}
}

func TestPackBadInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pack accepted a ragged code slice")
		}
	}()
	Pack(make([]byte, 7), 2)
}

// Scan must equal the per-row ADC reference on every sub-range,
// including ranges that start and end mid-block — the partition
// independence the vault merge relies on.
func TestScanMatchesADCOnAnyRange(t *testing.T) {
	const n, dim = 1000, 8
	data := genData(10, n, dim)
	cb, err := Train(data, dim, Params{M: 4, Sample: 512, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	raw := cb.Encode(data)
	c := Pack(raw, cb.M())
	q := genData(11, 1, dim)
	lut := cb.Table(vec.Euclidean, q, nil)

	want := make([]float32, n)
	for i := 0; i < n; i++ {
		want[i] = ADC(lut, raw[i*cb.M():(i+1)*cb.M()])
	}
	ranges := [][2]int{{0, n}, {0, 1}, {0, 0}, {999, 1000}, {100, 300}, {250, 270}, {255, 257}, {511, 513}, {3, 998}}
	for _, r := range ranges {
		seen := r[0]
		c.Scan(lut, r[0], r[1], func(base int, dists []float32) {
			if base != seen {
				t.Fatalf("range %v: got base %d, want %d", r, base, seen)
			}
			for i, d := range dists {
				if d != want[base+i] {
					t.Fatalf("range %v row %d: scan %v, want %v", r, base+i, d, want[base+i])
				}
			}
			seen = base + len(dists)
		})
		if seen != r[1] {
			t.Fatalf("range %v: scan stopped at %d", r, seen)
		}
	}
}

// Scan folds four subquantizer columns into a pass, the M mod 4 odd
// ones first: at every width, over random codes and tables (no
// codebook needed), whole and from mid-block to mid-block, each sum
// must still be ADC's left-to-right float32 sum bit for bit.
func TestScanMatchesADCAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 2*BlockRows + 37
	for m := 1; m <= 13; m++ {
		raw := make([]byte, n*m)
		rng.Read(raw)
		lut := make([]float32, m*Ks)
		for i := range lut {
			lut[i] = rng.Float32() * 100
		}
		c := Pack(raw, m)
		for _, r := range [][2]int{{0, n}, {BlockRows - 3, 2*BlockRows + 5}} {
			c.Scan(lut, r[0], r[1], func(base int, dists []float32) {
				for i, d := range dists {
					row := base + i
					if want := ADC(lut, raw[row*m:(row+1)*m]); math.Float32bits(d) != math.Float32bits(want) {
						t.Fatalf("M=%d range %v row %d: scan %v, want %v", m, r, row, d, want)
					}
				}
			})
		}
	}
}

func TestScanBadInputPanics(t *testing.T) {
	c := Pack(make([]byte, 10*2), 2)
	lut := make([]float32, 2*Ks)
	for _, fn := range []func(){
		func() { c.Scan(lut[:Ks], 0, 10, func(int, []float32) {}) },
		func() { c.Scan(lut, -1, 10, func(int, []float32) {}) },
		func() { c.Scan(lut, 0, 11, func(int, []float32) {}) },
		func() { c.Scan(lut, 5, 4, func(int, []float32) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Scan accepted invalid input")
				}
			}()
			fn()
		}()
	}
}

func TestEncodeVecDimMismatchPanics(t *testing.T) {
	data := genData(12, 100, 8)
	cb, err := Train(data, 8, Params{M: 2, Sample: 64, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeVec accepted a short vector")
		}
	}()
	cb.EncodeVec(data[:4], make([]byte, 2))
}

func TestEncodeDimMismatchPanics(t *testing.T) {
	data := genData(12, 100, 8)
	cb, err := Train(data, 8, Params{M: 2, Sample: 64, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg, _ := recover().(string); msg != "pq: dimension mismatch" {
			t.Fatalf("Encode of a trailing partial row: recovered %q", msg)
		}
	}()
	cb.Encode(data[:len(data)-3])
}

// nearestCentroid returns the index of the centroid nearest v under
// squared L2 (ties to the lowest index) and the distance to it. It is
// the scalar one-goroutine loop training and encoding ran before they
// went through vec.Tile, kept unchanged as their oracle.
func nearestCentroid(cents []float32, sub int, v []float32) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c := 0; c*sub < len(cents); c++ {
		cent := cents[c*sub : (c+1)*sub]
		var acc float64
		for d := range cent {
			diff := float64(v[d]) - float64(cent[d])
			acc += diff * diff
		}
		if acc < bestD {
			best, bestD = c, acc
		}
	}
	return best, bestD
}

// Encode, per-row EncodeVec and the scalar oracle must agree on every
// code byte at every subspace width from 1 to 17, on codebooks built to
// break an argmin: duplicated centroids, rows sitting on a centroid,
// small-integer coordinates where equal distances are common, and NaN
// and ±Inf in both centroids and rows. The row count leaves a partial
// block and spills into a second chunk.
func TestEncodeMatchesScalarArgmin(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	draw := func(ties bool) float32 {
		switch {
		case rng.Intn(40) == 0:
			return specials[rng.Intn(len(specials))]
		case ties:
			return float32(rng.Intn(3))
		}
		return float32(rng.NormFloat64())
	}
	const m, n = 3, chunkRows + 7
	for w := 1; w <= 17; w++ {
		for _, ties := range []bool{false, true} {
			dim := m * w
			cb := &Codebook{dim: dim, m: m, starts: subspaceStarts(dim, m), cents: make([]float32, Ks*dim)}
			for i := range cb.cents {
				cb.cents[i] = draw(ties)
			}
			for j := 0; j < m; j++ {
				for c := 5; c < Ks; c += 7 { // every seventh centroid repeats an earlier one
					copy(cb.Centroid(j, c), cb.Centroid(j, c-5))
				}
			}
			data := make([]float32, n*dim)
			for i := range data {
				data[i] = draw(ties)
			}
			for i := 0; i < n; i += 9 { // every ninth row sits on a centroid
				for j := 0; j < m; j++ {
					copy(data[i*dim+cb.starts[j]:], cb.Centroid(j, rng.Intn(Ks)))
				}
			}

			codes := cb.Encode(data)
			code := make([]byte, m)
			for i := 0; i < n; i++ {
				v := data[i*dim : (i+1)*dim]
				cb.EncodeVec(v, code)
				for j := 0; j < m; j++ {
					lo, hi := cb.starts[j], cb.starts[j+1]
					want, _ := nearestCentroid(cb.cents[Ks*lo:Ks*hi], hi-lo, v[lo:hi])
					if got := codes[i*m+j]; int(got) != want || code[j] != got {
						t.Fatalf("width %d ties %v row %d sub %d: Encode %d, EncodeVec %d, oracle %d",
							w, ties, i, j, got, code[j], want)
					}
				}
			}
		}
	}
}

// A panic in one chunk of the assignment fan-out must come back on the
// caller's goroutine as a *par.PanicError, where a recover can take it,
// and not kill the process from a worker.
func TestAssignmentPanicReachesCaller(t *testing.T) {
	const sub, n = 2, 3 * chunkRows
	cents := make([]float32, Ks*sub)
	row := make([]float32, sub)
	err := par.Safe(func() error {
		nearest(cents, sub, n, func(int) []float32 { return row }, func(i, _ int, _ float64) {
			if i == 2*chunkRows+5 {
				panic("boom")
			}
		})
		return nil
	})
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("got %v, want the chunk's panic", err)
	}
}

// Degenerate data: all rows identical leaves 255 of 256 clusters empty
// every iteration, exercising the deterministic reseed path; training
// must still terminate and encode losslessly.
func TestAllEqualRows(t *testing.T) {
	const n, dim = 500, 6
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = 3.25
	}
	cb, err := Train(data, dim, Params{M: 2, Sample: 256, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	codes := cb.Encode(data)
	dst := make([]float32, dim)
	got := cb.Decode(codes[:cb.M()], dst)
	for d := range got {
		if got[d] != 3.25 {
			t.Fatalf("decode %v", got)
		}
	}
	// All rows must share one code (ties go to the lowest index).
	for i := 1; i < n; i++ {
		for j := 0; j < cb.M(); j++ {
			if codes[i*cb.M()+j] != codes[j] {
				t.Fatalf("row %d code differs: %v vs %v", i, codes[i*cb.M():(i+1)*cb.M()], codes[:cb.M()])
			}
		}
	}
}

// Subsampled training (Sample < n) must stay deterministic and produce
// a usable codebook.
func TestSubsampledTraining(t *testing.T) {
	data := genData(13, 5000, 8)
	p := Params{M: 4, Sample: 300, Iterations: 3, Seed: 5}
	a, err := Train(data, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("subsampled training not deterministic")
	}
}
