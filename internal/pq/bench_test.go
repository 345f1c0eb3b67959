package pq

import (
	"fmt"
	"math/rand"
	"testing"

	"ssam/internal/vec"
)

// The spine's quantized shape: 50 000 rows of 128 dimensions.
const benchRows, benchDim = 50000, 128

// BenchmarkScan times the ADC kernel alone over random codes at the
// spine's row count, one full scan per iteration, the callback reading
// one distance a block. (The spine's pq.adc_ns_per_code probe sums
// every distance in its callback, which costs more than the kernel.)
func BenchmarkScan(b *testing.B) {
	for _, m := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			raw := make([]byte, benchRows*m)
			rng.Read(raw)
			codes := Pack(raw, m)
			lut := make([]float32, m*Ks)
			for i := range lut {
				lut[i] = rng.Float32()
			}
			var sink float32
			b.SetBytes(int64(codes.Bytes()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				codes.Scan(lut, 0, benchRows, func(_ int, dists []float32) {
					sink += dists[len(dists)-1]
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/code")
			if sink < 0 {
				b.Fatal("table sums are non-negative")
			}
		})
	}
}

// BenchmarkTrain times codebook training at the spine's shape: M = 8,
// the default sample and iteration bound. ns/row is per sampled row,
// the rows the k-means assigns each iteration.
func BenchmarkTrain(b *testing.B) {
	data := genData(1, benchRows, benchDim)
	p := Params{M: 8, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(data, benchDim, p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/min(DefaultSample, benchRows), "ns/row")
}

// BenchmarkEncode times coding every row of the spine's shape against
// an M = 8 codebook. ns/row is per database row.
func BenchmarkEncode(b *testing.B) {
	data := genData(1, benchRows, benchDim)
	cb, err := Train(data[:1024*benchDim], benchDim, Params{M: 8, Sample: 1024, Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb.Encode(data)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

// BenchmarkTable times one query's M×Ks lookup-table build at the
// spine's width and code size.
func BenchmarkTable(b *testing.B) {
	data := genData(1, 1024, benchDim)
	cb, err := Train(data, benchDim, Params{M: 8, Sample: 1024, Iterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	qs := genData(2, 64, benchDim)
	lut := make([]float32, cb.M()*Ks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[(i%64)*benchDim : (i%64+1)*benchDim]
		cb.Table(vec.Euclidean, q, lut)
	}
}
