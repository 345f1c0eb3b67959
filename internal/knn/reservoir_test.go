package knn

// The ADC pass's selection held to the oracle internal/topk holds its
// Selector to: sort everything under (distance, id) and truncate. The
// quantized engine leans on the selected set being exactly that one,
// whatever bound the pilot drew and however the stream is cut into
// blocks, ranges and vaults.

import (
	"fmt"
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

// filterSelect runs a stream through the selection the way the engine
// does: cut into parts (vault ranges) at the given offsets, each part
// collected in blocks of at most block rows against the bound at
// distance t, the parts handed to selectCands in the given order — and,
// when fewer than r rows were collected, collected once more under
// allCands. Row ids are base + position, so the stream's ids are
// ids[i] = base + i. It reports whether it rescanned.
func filterSelect(r, base, block int, t float32, dists []float32, cuts, order []int) ([]cand, bool) {
	parts, kept := collectParts(boundAt(t), base, block, dists, cuts)
	rescan := kept < r
	if rescan {
		parts, _ = collectParts(allCands, base, block, dists, cuts)
	}
	if order != nil {
		shuffled := make([][]cand, len(parts))
		for i, p := range order {
			shuffled[i] = parts[p]
		}
		parts = shuffled
	}
	return selectCands(r, parts...), rescan
}

// collectParts is one pass of filterSelect: each part's rows at or
// below bound, and how many there are in all.
func collectParts(bound cand, base, block int, dists []float32, cuts []int) ([][]cand, int) {
	parts := make([][]cand, 0, len(cuts)+1)
	lo, kept := 0, 0
	for _, hi := range append(slices.Clone(cuts), len(dists)) {
		var part []cand
		for b := lo; b < hi; b += block {
			part = collect(part, bound, base+b, dists[b:min(b+block, hi)])
		}
		parts = append(parts, part)
		kept += len(part)
		lo = hi
	}
	return parts, kept
}

// boundAt is the bound a pilot that drew d sets: every row at d or
// below, as pilot builds it.
func boundAt(d float32) cand { return makeCand(d, math.MaxUint32) }

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

// threshold is a bound a pilot could draw, by name.
type threshold struct {
	name string
	t    float32
}

// thresholds are the bounds a pilot could draw for a stream at depth
// r: below its minimum (nothing collected, so a rescan), at its r-th
// value (the boundary tie: rows equal to it on both sides of the cut),
// +Inf, both NaNs (past everything, and before it), and one of its
// values at random.
func thresholds(rng *rand.Rand, r int, dists []float32) []threshold {
	s := slices.Clone(dists)
	slices.Sort(s)
	nan := math.NaN()
	return []threshold{
		{"below", math.Nextafter32(s[0], float32(math.Inf(-1)))},
		{"rth", s[min(r, len(s))-1]},
		{"+inf", float32(math.Inf(1))},
		{"nan", float32(math.Copysign(nan, 1))},
		{"-nan", float32(math.Copysign(nan, -1))},
		{"random", dists[rng.Intn(len(dists))]},
	}
}

// TestReservoirMatchesOracle: the selected set is sort-and-truncate's
// at the boundary depths, on every stream, under every threshold,
// whatever the block size and however the stream splits into 1–32
// parts reduced in any order; and the rescan runs exactly when fewer
// than r rows sit at or below the bound.
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
				for _, th := range thresholds(rng, r, dists) {
					tname := th.name
					tag := fmt.Sprintf("%s r=%d t=%s(%v)", name, r, tname, th.t)
					got, rescan := filterSelect(r, base, 256, th.t, dists, nil, nil)
					sameCands(t, tag+" whole", got, want)
					below := 0
					for _, d := range dists {
						if makeCand(d, 0) <= boundAt(th.t) {
							below++
						}
					}
					if rescan != (below < r) {
						t.Fatalf("%s: rescan %v with %d of %d rows at or below the bound", tag, rescan, below, r)
					}
					switch {
					case tname == "below" && !math.IsInf(float64(th.t), -1) && !rescan:
						t.Fatalf("%s: nothing is below the minimum, yet no rescan", tag)
					case tname == "rth" && r <= n && rescan:
						t.Fatalf("%s: the r-th value keeps r rows, yet a rescan", tag)
					}

					parts := 1 + rng.Intn(min(32, n))
					cuts := make([]int, parts-1)
					for i := range cuts {
						cuts[i] = rng.Intn(n + 1) // empty parts included
					}
					slices.Sort(cuts)
					block := 1 + rng.Intn(300)
					got, splitRescan := filterSelect(r, base, block, th.t, dists, cuts, rng.Perm(parts))
					sameCands(t, tag+" split", got, want)
					if len(got) != min(r, n) {
						t.Fatalf("%s: %d candidates, want %d", tag, len(got), min(r, n))
					}
					if splitRescan != rescan {
						t.Fatalf("%s: rescan %v split, %v whole", tag, splitRescan, rescan)
					}
				}
			}
		}
	}
}

// TestReservoirPushOrderInvariant collects one stream a row at a time
// in shuffled orders and wants the same set back each time.
func TestReservoirPushOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, st := range streams {
		name, gen := st.name, st.gen
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(200)
			dists := gen(rng, n)
			ids := seqIDs(rng.Intn(1000), n)
			r := 1 + rng.Intn(n+2)
			bound := boundAt(dists[rng.Intn(n)])
			want := candOracle(r, dists, ids)
			for p := 0; p < 5; p++ {
				var got []cand
				for _, i := range rng.Perm(n) {
					got = collect(got, bound, int(ids[i]), dists[i:i+1])
				}
				if len(got) < r {
					got = got[:0]
					for _, i := range rng.Perm(n) {
						got = collect(got, allCands, int(ids[i]), dists[i:i+1])
					}
				}
				sameCands(t, name, selectCands(r, got), want)
			}
		}
	}
}

// TestReservoirDepthOfScan is the engine's case in miniature — many
// more rows than R, the bound drawn from a strided pilot at the
// engine's rank — with the kept count checked for what it is defined
// as: the rows at or below the bound, at least R and within twice the
// n·rank/s a pilot of s rows predicts.
func TestReservoirDepthOfScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n, r = 20000, 100
	dists := streams[0].gen(rng, n)
	s, rank := pilotShape(n, r)
	if rank == 0 {
		t.Fatalf("no pilot at n = %d, r = %d", n, r)
	}
	pilot := make([]float32, s)
	for i := range pilot {
		pilot[i] = dists[i*n/s]
	}
	slices.Sort(pilot)
	parts, kept := collectParts(boundAt(pilot[rank-1]), 0, 256, dists, []int{n / 3})
	sameCands(t, "deep", selectCands(r, parts...), candOracle(r, dists, seqIDs(0, n)))
	if kept < r || kept > 2*n*rank/s {
		t.Fatalf("kept %d of %d at r = %d, pilot rank %d of %d", kept, n, r, rank, s)
	}
}

// A NaN has no rank in topk's order, but the candidate packing gives
// it one (past the infinity of its sign): with NaNs in the stream, and
// as the threshold, the selection is the packed order's r smallest —
// so the re-rank still gets min(R, n) candidates, and the same ones
// however the scan was cut.
func TestReservoirNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	nan := float32(math.NaN())
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(600)
		dists := streams[0].gen(rng, n)
		for i := range dists {
			switch rng.Intn(4) {
			case 0:
				dists[i] = float32(math.Copysign(float64(nan), 1))
			case 1:
				dists[i] = float32(math.Copysign(float64(nan), -1))
			}
		}
		if trial%10 == 0 {
			for i := range dists {
				dists[i] = nan
			}
		}
		all := make([]cand, n)
		for i, d := range dists {
			all[i] = makeCand(d, uint32(i))
		}
		slices.Sort(all)
		for _, r := range []int{1, 2, 7, n - 1, n, n + 5} {
			if r < 1 {
				continue
			}
			for _, th := range thresholds(rng, r, dists) {
				got, _ := filterSelect(r, 0, 1+rng.Intn(300), th.t, dists, []int{n / 3, n / 2}, nil)
				slices.Sort(got)
				if !slices.Equal(got, all[:min(r, n)]) {
					t.Fatalf("n=%d r=%d t=%s: %d candidates, not the %d smallest", n, r, th.name, len(got), min(r, n))
				}
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
// size, a split and a threshold — the stream's value at the block
// size's index, read before the NaN mapping, so a NaN threshold stays
// one — and holds the result to the oracle.
func FuzzReservoir(f *testing.F) {
	f.Add(uint16(1), uint8(1), uint8(0), []byte{0, 0, 128, 63})
	f.Fuzz(func(t *testing.T, r uint16, block, parts uint8, raw []byte) {
		n := len(raw) / 4
		if n == 0 || r == 0 {
			return
		}
		dists := make([]float32, n)
		var th float32
		for i := range dists {
			d := math.Float32frombits(uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24)
			if i == int(block)%n {
				th = d
			}
			if d != d {
				d = float32(raw[4*i] % 4)
			}
			dists[i] = d
		}
		cuts := make([]int, int(parts)%32)
		for i := range cuts {
			cuts[i] = (i + 1) * n / (len(cuts) + 1)
		}
		got, _ := filterSelect(int(r), 100, 1+int(block), th, dists, cuts, nil)
		sameCands(t, "fuzz", got, candOracle(int(r), dists, seqIDs(100, n)))
	})
}

// A depth no buffer could be sized for (SetChecks takes any positive
// int) is every row, not a panic.
func TestReservoirHugeDepth(t *testing.T) {
	dists := []float32{3, 1, 2}
	got, rescan := filterSelect(math.MaxInt, 0, 2, 2, dists, []int{1}, nil)
	sameCands(t, "huge", got, candOracle(3, dists, seqIDs(0, 3)))
	if !rescan {
		t.Fatal("two rows at or below the bound passed for every row")
	}
}
