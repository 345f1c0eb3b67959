// Package pq implements product quantization for approximate nearest
// neighbor search: the codesign lever André's thesis (arXiv:1712.02912)
// applies on host silicon and NCAM (arXiv:1606.03742) applies near
// memory. A d-dimensional float32 vector is split into M subspaces and
// each subspace is vector-quantized against its own codebook of
// Ks = 256 centroids, so a database row shrinks from 4·d bytes to M
// bytes. Query-time distances are computed asymmetrically (ADC): one
// lookup table of M×256 query-to-centroid partial distances is built
// per query, after which each database row costs M table lookups and
// M-1 additions instead of d float subtract-multiply-adds — every byte
// fetched from memory does more distance work, which is the same
// bandwidth-per-eval argument the SSAM vault accelerators make in §IV
// of the source paper.
//
// Codebook training (Train) is deterministic: the training sample, the
// k-means initialization, and the empty-cluster reseeds are all drawn
// from one seeded generator, so the same data and Params produce
// bit-identical codebooks on every run. The one expensive step, the
// nearest-centroid assignment shared by training and encoding, runs
// through vec.Tile's block kernel on every core; everything that
// depends on more than one row at a time stays serial and in order, so
// the codebooks and codes are the same bits at any GOMAXPROCS.
package pq

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"ssam/internal/par"
	"ssam/internal/vec"
)

// Ks is the number of centroids per subquantizer. It is fixed at 256
// so a code element is exactly one byte: the scan kernel indexes its
// lookup tables with raw code bytes, which needs no bounds check once
// the table is viewed as a *[Ks]float32.
const Ks = 256

// Defaults for Params fields left zero.
const (
	DefaultM          = 8
	DefaultSample     = 8192
	DefaultIterations = 12
)

// Params configures codebook training.
type Params struct {
	// M is the subquantizer count. Each subspace covers dim/M
	// dimensions (the first dim%M subspaces take one extra, so any
	// 1 <= M <= dim is valid). 0 selects DefaultM.
	M int
	// Sample is the number of database rows the k-means training runs
	// on, drawn without replacement from a seeded generator (the whole
	// database when it has fewer rows). 0 selects DefaultSample.
	Sample int
	// Iterations bounds the Lloyd iterations per subquantizer;
	// training stops early when assignments stabilize. 0 selects
	// DefaultIterations.
	Iterations int
	// Seed seeds sampling, initialization, and reseeding.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.M == 0 {
		p.M = DefaultM
	}
	if p.Sample == 0 {
		p.Sample = DefaultSample
	}
	if p.Iterations == 0 {
		p.Iterations = DefaultIterations
	}
	return p
}

// Codebook holds M per-subspace centroid sets over dim-dimensional
// vectors. Centroids always use squared-L2 k-means regardless of the
// query metric: for the additive metrics the ADC tables support
// (squared L2, L1) the L2-trained cells remain a usable partition, and
// training stays metric-independent so one codebook serves both.
type Codebook struct {
	dim    int
	m      int
	starts []int     // len m+1: subspace j covers dims [starts[j], starts[j+1])
	cents  []float32 // Ks*dim floats; subspace j's block starts at Ks*starts[j]
}

// Train builds a codebook for the flattened row-major database. It is
// deterministic in (data, dim, p).
func Train(data []float32, dim int, p Params) (*Codebook, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("pq: data length %d not a positive multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	if n == 0 {
		return nil, fmt.Errorf("pq: empty database")
	}
	p = p.withDefaults()
	if p.M < 1 || p.M > dim {
		return nil, fmt.Errorf("pq: M=%d out of range [1, %d]", p.M, dim)
	}
	if p.Sample < 1 || p.Iterations < 1 {
		return nil, fmt.Errorf("pq: Sample and Iterations must be positive")
	}

	cb := &Codebook{
		dim:    dim,
		m:      p.M,
		starts: subspaceStarts(dim, p.M),
		cents:  make([]float32, Ks*dim),
	}

	rng := rand.New(rand.NewSource(p.Seed))
	sample := sampleRows(rng, n, p.Sample)
	for j := 0; j < cb.m; j++ {
		cb.trainSub(rng, data, sample, j, p.Iterations)
	}
	return cb, nil
}

// subspaceStarts splits dim dimensions into m contiguous subspaces,
// the first dim%m of them one dimension wider.
func subspaceStarts(dim, m int) []int {
	starts := make([]int, m+1)
	base, extra := dim/m, dim%m
	for j := 0; j < m; j++ {
		w := base
		if j < extra {
			w++
		}
		starts[j+1] = starts[j] + w
	}
	return starts
}

// sampleRows draws min(sample, n) distinct row indices without
// replacement and returns them sorted ascending (sorted so the
// training pass touches memory in row order).
func sampleRows(rng *rand.Rand, n, sample int) []int {
	if sample >= n {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	rows := rng.Perm(n)[:sample]
	sort.Ints(rows)
	return rows
}

// trainSub runs seeded Lloyd k-means for subspace j over the sampled
// rows, writing the Ks centroids into cb.cents.
func (cb *Codebook) trainSub(rng *rand.Rand, data []float32, sample []int, j, iters int) {
	lo, hi := cb.starts[j], cb.starts[j+1]
	sub := hi - lo
	ns := len(sample)
	cents := cb.cents[Ks*lo : Ks*hi]

	// Initialize from distinct sampled rows (cycling when the sample
	// is smaller than Ks; the duplicates lose every nearest-centroid
	// tie to the first copy and simply go unused).
	perm := rng.Perm(ns)
	for c := 0; c < Ks; c++ {
		row := sample[perm[c%ns]]
		copy(cents[c*sub:(c+1)*sub], data[row*cb.dim+lo:row*cb.dim+hi])
	}

	assign, next := make([]int, ns), make([]int, ns)
	dists := make([]float64, ns)
	sum := make([]float64, Ks*sub)
	count := make([]int, Ks)
	for i := range assign {
		assign[i] = -1
	}
	for it := 0; it < iters; it++ {
		// Only the assignment fans out; the changed check, the sums in
		// sample order and the reseeds below stay on this goroutine.
		nearest(cents, sub, ns, func(i int) []float32 {
			row := sample[i]
			return data[row*cb.dim+lo : row*cb.dim+hi]
		}, func(i, c int, d float64) {
			next[i], dists[i] = c, d
		})
		changed := false
		for i, c := range next {
			if c != assign[i] {
				assign[i] = c
				changed = true
			}
		}
		if !changed {
			break
		}
		for i := range sum {
			sum[i] = 0
		}
		for c := range count {
			count[c] = 0
		}
		for i, row := range sample {
			c := assign[i]
			count[c]++
			v := data[row*cb.dim+lo : row*cb.dim+hi]
			acc := sum[c*sub : (c+1)*sub]
			for d := range acc {
				acc[d] += float64(v[d])
			}
		}
		// Empty clusters reseed to the points currently worst served
		// (largest assignment distance), each empty cluster taking the
		// next-farthest point (cycling when empties outnumber points) —
		// deterministic, no generator state.
		var farthest []int
		fi := 0
		for c := 0; c < Ks; c++ {
			if count[c] > 0 {
				dst := cents[c*sub : (c+1)*sub]
				inv := 1 / float64(count[c])
				for d := range dst {
					dst[d] = float32(sum[c*sub+d] * inv)
				}
				continue
			}
			if farthest == nil {
				farthest = make([]int, ns)
				for i := range farthest {
					farthest[i] = i
				}
				sort.Slice(farthest, func(a, b int) bool {
					if dists[farthest[a]] != dists[farthest[b]] {
						return dists[farthest[a]] > dists[farthest[b]]
					}
					return farthest[a] < farthest[b]
				})
			}
			row := sample[farthest[fi%len(farthest)]]
			fi++
			copy(cents[c*sub:(c+1)*sub], data[row*cb.dim+lo:row*cb.dim+hi])
		}
	}
}

// chunkRows is how many rows one index of the assignment fan-out
// scores: a few hundred microseconds of kernel work at the spine's
// width, so the fan-out's bookkeeping is noise beside it and a core
// that finishes early finds more chunks to claim.
const chunkRows = 256

// nearest is the assignment step of training and encoding: for each of
// the n subvectors row(0) … row(n-1), sub wide, it calls set(i, c, d)
// with the index c of the nearest of the Ks centroids in cents under
// squared L2 and the distance d to it.
//
// The centroids are the queries of a vec.Tile built here and dropped on
// return, never kept (it is Ks·sub float64s). Block scores four rows a
// call — they need not be adjacent — and returns the float64 sum a
// scalar loop takes, bit for bit; a chunk's last block repeats its last
// row into the lanes it has no row for. Rows run in chunks of chunkRows
// on every core, and since a row's answer depends on that row alone,
// set sees the same (i, c, d) at any GOMAXPROCS; it is called
// concurrently for distinct i. A panic in a chunk is re-raised on the
// caller's goroutine as the *par.PanicError the fan-out turned it into.
func nearest(cents []float32, sub, n int, row func(i int) []float32, set func(i, c int, d float64)) {
	qs := make([][]float32, Ks)
	for c := range qs {
		qs[c] = cents[c*sub : (c+1)*sub]
	}
	t := vec.NewTile(vec.Euclidean, qs)
	chunks := (n + chunkRows - 1) / chunkRows
	err := par.Each(chunks, runtime.GOMAXPROCS(0), func(k int) error {
		lanes, out := t.Lanes(), make([]float64, vec.BlockRows*Ks)
		lo, hi := k*chunkRows, min((k+1)*chunkRows, n)
		var rows [vec.BlockRows][]float32
		for i := lo; i < hi; i += vec.BlockRows {
			for r := range rows {
				rows[r] = row(min(i+r, hi-1))
			}
			t.Block(&rows, lanes, out)
			best, dist := argmin(out)
			for r := range min(vec.BlockRows, hi-i) {
				set(i+r, best[r], dist[r])
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// argmin writes out one compare per lane of a Block: this fails to
// compile unless there are four.
const _ = uint(vec.BlockRows-4) + uint(4-vec.BlockRows)

// argmin is the package's one argmin. For each lane r of a Block
// output it returns the index of the least of the Ks distances
// out[c*BlockRows+r] and that distance. Each lane starts at +Inf and
// moves only on a strictly smaller value, so ties go to the lowest
// index and a NaN never wins: a row whose every distance is NaN or +Inf
// answers centroid 0 at +Inf. The lanes are written out, not looped
// over, so their minima stay in registers.
func argmin(out []float64) (best [vec.BlockRows]int, dist [vec.BlockRows]float64) {
	inf := math.Inf(1)
	dist = [vec.BlockRows]float64{inf, inf, inf, inf}
	out = out[:vec.BlockRows*Ks]
	for c := 0; c < Ks; c++ {
		o := (*[vec.BlockRows]float64)(out[c*vec.BlockRows:])
		if o[0] < dist[0] {
			best[0], dist[0] = c, o[0]
		}
		if o[1] < dist[1] {
			best[1], dist[1] = c, o[1]
		}
		if o[2] < dist[2] {
			best[2], dist[2] = c, o[2]
		}
		if o[3] < dist[3] {
			best[3], dist[3] = c, o[3]
		}
	}
	return best, dist
}

// M returns the subquantizer count.
func (cb *Codebook) M() int { return cb.m }

// Dim returns the vector dimensionality.
func (cb *Codebook) Dim() int { return cb.dim }

// SubDim returns the width of subspace j.
func (cb *Codebook) SubDim(j int) int { return cb.starts[j+1] - cb.starts[j] }

// Centroid returns centroid c of subquantizer j (a view, not a copy).
func (cb *Codebook) Centroid(j, c int) []float32 {
	lo, hi := cb.starts[j], cb.starts[j+1]
	sub := hi - lo
	base := Ks*lo + c*sub
	return cb.cents[base : base+sub]
}

// EncodeVec writes v's M-byte code into dst (len >= M): for each
// subspace, the index of the nearest centroid under squared L2.
func (cb *Codebook) EncodeVec(v []float32, dst []byte) {
	if len(v) != cb.dim {
		panic("pq: dimension mismatch")
	}
	cb.encode(v, dst[:cb.m])
}

// Encode codes every row of the flattened database, returning n*M
// row-major code bytes. The data must hold whole rows.
func (cb *Codebook) Encode(data []float32) []byte {
	if len(data)%cb.dim != 0 {
		panic("pq: dimension mismatch")
	}
	codes := make([]byte, len(data)/cb.dim*cb.m)
	cb.encode(data, codes)
	return codes
}

// encode writes the codes of data's rows into codes, one subspace at a
// time so that only one centroid tile is alive at once.
func (cb *Codebook) encode(data []float32, codes []byte) {
	n := len(data) / cb.dim
	for j := 0; j < cb.m; j++ {
		lo, hi := cb.starts[j], cb.starts[j+1]
		nearest(cb.cents[Ks*lo:Ks*hi], hi-lo, n, func(i int) []float32 {
			return data[i*cb.dim+lo : i*cb.dim+hi]
		}, func(i, c int, _ float64) {
			codes[i*cb.m+j] = byte(c)
		})
	}
}

// Decode reconstructs the centroid approximation of an M-byte code
// into dst (len >= Dim), returning dst.
func (cb *Codebook) Decode(code []byte, dst []float32) []float32 {
	for j := 0; j < cb.m; j++ {
		copy(dst[cb.starts[j]:cb.starts[j+1]], cb.Centroid(j, int(code[j])))
	}
	return dst
}
