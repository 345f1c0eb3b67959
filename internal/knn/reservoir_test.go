package knn

// The reservoir held to the oracle internal/topk holds its Selector
// to: sort everything under (distance, id) and truncate. The ADC pass
// of the quantized engine leans on the retained set being exactly that
// one, however the stream is cut into blocks, ranges and vaults.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ssam/internal/topk"
)

// candOracle is the r best of a stream under the total order, by
// topk.SortResults: the reference the heap was pinned to.
func candOracle(r int, dists []float32, ids []uint32) []topk.Result {
	all := make([]topk.Result, len(dists))
	for i, d := range dists {
		all[i] = topk.Result{ID: int(ids[i]), Dist: float64(d)}
	}
	topk.SortResults(all)
	return all[:min(r, len(all))]
}

// sorted is a candidate list closest first, as Results.
func sorted(cands []cand) []topk.Result {
	cands = slices.Clone(cands)
	slices.Sort(cands)
	out := make([]topk.Result, len(cands))
	for i, c := range cands {
		out[i] = topk.Result{ID: c.row(), Dist: float64(c.dist())}
	}
	return out
}

// reserve runs a stream through reservoirs the way the engine does:
// cut into parts (vault ranges) at the given offsets, each part
// offered to its own reservoir in blocks of at most block rows, the
// parts' buffers handed to selectCands in the given order. Row ids are
// base + position, so the stream's ids are ids[i] = base + i.
func reserve(r, base, block int, dists []float32, cuts []int, order []int) []cand {
	parts := make([][]cand, 0, len(cuts)+1)
	lo := 0
	for _, hi := range append(slices.Clone(cuts), len(dists)) {
		res := newReservoir(r, hi-lo)
		for b := lo; b < hi; b += block {
			res.offer(base+b, dists[b:min(b+block, hi)])
		}
		parts = append(parts, res.buf)
		lo = hi
	}
	if order != nil {
		shuffled := make([][]cand, len(parts))
		for i, p := range order {
			shuffled[i] = parts[p]
		}
		parts = shuffled
	}
	return selectCands(r, parts...)
}

func sameCands(t *testing.T, tag string, got []cand, want []topk.Result) {
	t.Helper()
	if g := sorted(got); !slices.Equal(g, want) {
		t.Fatalf("%s:\ngot  %v\nwant %v", tag, g, want)
	}
}

// streams are the distance distributions the selection must not care
// about: continuous, tie-heavy (at most 8 distinct values, so the
// boundary tie is the common case), all equal, and with both
// infinities and both zeros mixed in.
var streams = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float32
}{
	{"random", func(rng *rand.Rand, n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = rng.Float32() * 100
		}
		return out
	}},
	{"ties", func(rng *rand.Rand, n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(rng.Intn(8)) / 4
		}
		return out
	}},
	{"equal", func(rng *rand.Rand, n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = 2.5
		}
		return out
	}},
	{"inf", func(rng *rand.Rand, n int) []float32 {
		special := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), -1, 1, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32}
		out := make([]float32, n)
		for i := range out {
			out[i] = special[rng.Intn(len(special))]
		}
		return out
	}},
}

func seqIDs(base, n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(base + i)
	}
	return ids
}

// TestReservoirMatchesOracle: the retained set is sort-and-truncate's
// at the boundary depths, on every stream, whatever the block size and
// however the stream splits into 1–32 parts reduced in any order.
func TestReservoirMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, st := range streams {
		name, gen := st.name, st.gen
		for trial := 0; trial < 60; trial++ {
			n := 2 + rng.Intn(700)
			base := rng.Intn(1 << 20)
			dists := gen(rng, n)
			for _, r := range []int{1, 2, n - 1, n, n + 5} {
				want := candOracle(r, dists, seqIDs(base, n))
				sameCands(t, name+" whole", reserve(r, base, 256, dists, nil, nil), want)

				parts := 1 + rng.Intn(min(32, n))
				cuts := make([]int, parts-1)
				for i := range cuts {
					cuts[i] = rng.Intn(n + 1) // empty parts included
				}
				slices.Sort(cuts)
				block := 1 + rng.Intn(300)
				got := reserve(r, base, block, dists, cuts, rng.Perm(parts))
				sameCands(t, name+" split", got, want)
				if len(got) != min(r, n) {
					t.Fatalf("%s: %d candidates, want %d", name, len(got), min(r, n))
				}
			}
		}
	}
}

// TestReservoirPushOrderInvariant offers one candidate set in shuffled
// orders, a candidate at a time, and wants the same set back each time.
func TestReservoirPushOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, st := range streams {
		name, gen := st.name, st.gen
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(200)
			dists := gen(rng, n)
			ids := seqIDs(rng.Intn(1000), n)
			r := 1 + rng.Intn(n+2)
			want := candOracle(r, dists, ids)
			for p := 0; p < 5; p++ {
				res := newReservoir(r, n)
				for _, i := range rng.Perm(n) {
					res.offer(int(ids[i]), dists[i:i+1])
				}
				sameCands(t, name, selectCands(r, res.buf), want)
			}
		}
	}
}

// TestReservoirDepthOfScan is the engine's case in miniature — many
// more rows than R, so the bound tightens through several compactions
// — with the kept count checked for what it is defined as.
func TestReservoirDepthOfScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, r = 20000, 100
	dists := streams[0].gen(rng, n)
	res := newReservoir(r, n)
	for b := 0; b < n; b += 256 {
		res.offer(b, dists[b:min(b+256, n)])
	}
	sameCands(t, "deep", selectCands(r, res.buf), candOracle(r, dists, seqIDs(0, n)))
	// Everything is kept until the first compaction bounds the stream;
	// after it, far fewer than are offered.
	if res.kept < 2*r || res.kept > n/10 {
		t.Fatalf("kept %d of %d at r = %d", res.kept, n, r)
	}
	if len(res.buf) >= 2*r {
		t.Fatalf("buffer holds %d, compaction is due at %d", len(res.buf), 2*r)
	}
}

// A NaN has no rank, so no set is "right" — but the scan must survive
// one (a query that overflowed float32) and still hand the re-rank
// min(R, n) candidates.
func TestReservoirNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	nan := float32(math.NaN())
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(600)
		dists := streams[0].gen(rng, n)
		for i := range dists {
			switch rng.Intn(4) {
			case 0:
				dists[i] = nan
			case 1:
				dists[i] = -nan
			}
		}
		if trial%10 == 0 {
			for i := range dists {
				dists[i] = nan
			}
		}
		for _, r := range []int{1, 2, 7, n - 1, n, n + 5} {
			if r < 1 {
				continue
			}
			got := reserve(r, 0, 1+rng.Intn(300), dists, []int{n / 3, n / 2}, nil)
			if len(got) != min(r, n) {
				t.Fatalf("n=%d r=%d: %d candidates, want %d", n, r, len(got), min(r, n))
			}
		}
	}
}

// TestCandOrder pins the packing: uint64 order is (distance, row)
// order, the two zeros tie, and the distance comes back bit for bit.
func TestCandOrder(t *testing.T) {
	ladder := []float32{float32(math.Inf(-1)), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32, 0, math.SmallestNonzeroFloat32, 1, math.MaxFloat32, float32(math.Inf(1))}
	for i, d := range ladder {
		if got := makeCand(d, 7).dist(); got != d || makeCand(d, 7).row() != 7 {
			t.Fatalf("round trip of (%v, 7): (%v, %d)", d, got, makeCand(d, 7).row())
		}
		if i > 0 && !(makeCand(ladder[i-1], math.MaxUint32) < makeCand(d, 0)) {
			t.Fatalf("%v does not order before %v", ladder[i-1], d)
		}
		if !(makeCand(d, 3) < makeCand(d, 4)) {
			t.Fatalf("rows do not break the tie at %v", d)
		}
	}
	negZero := float32(math.Copysign(0, -1))
	if makeCand(negZero, 5) != makeCand(0, 5) {
		t.Fatal("-0 and +0 pack differently, but compare equal")
	}
}

// FuzzReservoir cuts fuzzer-chosen bytes into a stream of float32s
// (NaNs mapped to a number: they have no oracle), a depth, a block
// size and a split, and holds the result to the oracle.
func FuzzReservoir(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(0), []byte{0, 0, 128, 63})
	f.Fuzz(func(t *testing.T, r uint16, block, parts uint8, raw []byte) {
		n := len(raw) / 4
		if n == 0 || r == 0 {
			return
		}
		dists := make([]float32, n)
		for i := range dists {
			d := math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
			if d != d {
				d = float32(raw[4*i] % 4)
			}
			dists[i] = d
		}
		cuts := make([]int, int(parts)%32)
		for i := range cuts {
			cuts[i] = (i + 1) * n / (len(cuts) + 1)
		}
		got := reserve(int(r), 100, 1+int(block), dists, cuts, nil)
		sameCands(t, "fuzz", got, candOracle(int(r), dists, seqIDs(100, n)))
	})
}

// A depth no buffer could be sized for (SetChecks takes any positive
// int) is every row, not a panic.
func TestReservoirHugeDepth(t *testing.T) {
	dists := []float32{3, 1, 2}
	got := reserve(math.MaxInt, 0, 2, dists, []int{1}, nil)
	sameCands(t, "huge", got, candOracle(3, dists, seqIDs(0, 3)))
}
