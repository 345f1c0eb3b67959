package ssam_test

// Benchmarks for the host-mode search path with the observability
// hooks compiled in. The untraced variant is the acceptance gate for
// the obs layer: with sampling off, every hook is a single nil check,
// and Region.Search must stay within a few percent of its pre-obs
// cost. The traced variant prices a fully sampled request (span
// allocation + monotonic clock reads) for the overhead budget in
// DESIGN.md §8.

import (
	"math/rand"
	"path/filepath"
	"testing"

	"ssam"
	"ssam/internal/obs"
)

func benchRegion(tb testing.TB, rows, dims int) (*ssam.Region, []float32) {
	return benchRegionMode(tb, rows, dims, ssam.Config{Mode: ssam.Linear, Execution: ssam.Host})
}

func benchRegionMode(tb testing.TB, rows, dims int, cfg ssam.Config) (*ssam.Region, []float32) {
	tb.Helper()
	r, err := ssam.New(dims, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	data, q := benchData(3, rows, dims)
	if err := r.LoadFloat32(data); err != nil {
		tb.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		tb.Fatal(err)
	}
	return r, q
}

// benchData is a database of rows x dims uniform in [0, 1) and a query
// drawn after it; every fixture's is seed 3's, the same in every mode.
func benchData(seed int64, rows, dims int) (data, q []float32) {
	rng := rand.New(rand.NewSource(seed))
	data = make([]float32, rows*dims)
	for i := range data {
		data[i] = rng.Float32()
	}
	q = make([]float32, dims)
	for i := range q {
		q[i] = rng.Float32()
	}
	return data, q
}

// BenchmarkRegionSearchHost is the untraced fast path: a single query
// is a batch of one, and a nil span threads through it, so the obs
// hooks cost one nil check each.
func BenchmarkRegionSearchHost(b *testing.B) {
	r, q := benchRegion(b, 4096, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchPQ is the quantized scan on the exact shape of
// BenchmarkRegionSearchHost (4096 x 64, k=10), so the two are directly
// comparable: the ratio between their times is the quantized search's
// speedup that TestTimingGates holds.
func BenchmarkSearchPQ(b *testing.B) {
	r, q := benchRegionPQ(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegionSearchTiered is the storage-backed linear scan on the
// exact shape of BenchmarkRegionSearchHost (4096 x 64, k=10) with an
// unlimited cache budget, so every page is resident after the first
// pass: the ratio between their times is the pure overhead of serving
// through the tier store (page pins + merge) that TestTimingGates holds
// under a 1.2x bar.
func BenchmarkRegionSearchTiered(b *testing.B) {
	r, q := benchRegionTiered(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRegionPQ is the quantized 4096 x 64 region (M = 8).
func benchRegionPQ(tb testing.TB) (*ssam.Region, []float32) {
	return benchRegionMode(tb, 4096, 64, ssam.Config{
		Mode:  ssam.Quantized,
		Index: ssam.IndexParams{Rerank: 64, Seed: 3},
	})
}

// benchRegionTiered is the storage-backed 4096 x 64 region with every
// page already resident.
func benchRegionTiered(tb testing.TB) (*ssam.Region, []float32) {
	r, q := benchRegionMode(tb, 4096, 64, ssam.Config{
		Storage: &ssam.Storage{
			Path:     filepath.Join(tb.TempDir(), "bench.tier"),
			Prefetch: true,
		},
	})
	if _, err := r.Search(q, 10); err != nil { // warm the cache
		tb.Fatal(err)
	}
	return r, q
}

// BenchmarkRegionSearchHostTraced runs the same search under a live
// span tree, as a force-sampled request would. The per-query delta
// against BenchmarkRegionSearchHost is the full tracing overhead.
func BenchmarkRegionSearchHostTraced(b *testing.B) {
	r, q := benchRegion(b, 4096, 64)
	tracer := obs.NewTracer(0, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tracer.Trace("bench", true)
		if _, _, err := r.SearchStatsSpan(q, 10, tr.Root()); err != nil {
			b.Fatal(err)
		}
		tracer.Finish(tr)
	}
}

// BenchmarkRegionSearchBatch16Host is a batch of 16 on the exact shape
// of BenchmarkRegionSearchHost (4096 x 64, k=10). The ratio between
// their times is what a batch costs in single scans: an untiled batch
// reads 16, the query-tiled scan about a third of that, and
// TestTimingGates holds the ratio so the tile cannot rot into 16 passes.
func BenchmarkRegionSearchBatch16Host(b *testing.B) {
	r, _ := benchRegion(b, 4096, 64)
	benchBatch16(b, r)
}

// BenchmarkRegionSearchBatch16Tiered is the same batch of 16 on the
// fully-cached storage-backed region of BenchmarkRegionSearchTiered.
// The in-RAM and the storage-backed scan are one loop over two row
// sources, so the batch must cost the same multiple of a single scan
// here as there; TestTimingGates holds this ratio too, which reads 16
// when a storage-backed batch runs one whole scan (and pins every page
// once) per query.
func BenchmarkRegionSearchBatch16Tiered(b *testing.B) {
	r, _ := benchRegionTiered(b)
	benchBatch16(b, r)
}

func benchBatch16(b *testing.B, r *ssam.Region) {
	qs := batch16Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SearchBatch(qs, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// batch16Queries is the Batch16 benchmarks' batch of 16 queries.
func batch16Queries() [][]float32 {
	flat, _ := benchData(4, 16, 64)
	qs := make([][]float32, 16)
	for j := range qs {
		qs[j] = flat[j*64 : (j+1)*64]
	}
	return qs
}
