package pq

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

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
