package knn

// Candidate selection for the product-quantized ADC pass: each range
// appends its rows at or below one bound, set by a pilot before the scan
// (pq.go), and one quickselect over the lists keeps the R best. With R
// collected that is topk.Selector's set, as a row left out ranks after
// every row kept; the lists are blind to blocks, ranges, vaults and
// arrival order, so serial ≡ vault-parallel ≡ tiered ≡ exact (R >= n).

import (
	"math"
	"math/bits"
	"slices"
)

// cand is one ADC candidate packed so that uint64 order is the total
// order (ascending distance, ties by ascending row): the high word is
// the float32 sum's bits mapped monotonically onto unsigned integers,
// the low word the row. One compare orders two candidates, NaNs have a
// place (past the infinity of their sign) so no comparison is ever
// inconsistent, and a candidate is 8 bytes where a topk.Result is 16.
type cand uint64

// allCands is the bound past every candidate, NaNs included.
const allCands = ^cand(0)

func makeCand(dist float32, row uint32) cand {
	b := math.Float32bits(dist + 0) // -0 + 0 is +0: the two zeros tie, as they do under ==
	if b&(1<<31) != 0 {
		b = ^b
	} else {
		b |= 1 << 31
	}
	return cand(b)<<32 | cand(row)
}

func (c cand) row() int { return int(uint32(c)) }

func (c cand) dist() float32 {
	b := uint32(c >> 32)
	if b&(1<<31) != 0 {
		b &^= 1 << 31
	} else {
		b = ^b
	}
	return math.Float32frombits(b)
}

// collect appends to dst the candidates among rows base, base+1, … at
// distances dists that are at or below bound, and returns it.
func collect(dst []cand, bound cand, base int, dists []float32) []cand {
	// All but a few in a hundred rows fail the float compare, which only
	// turns away rows past the bound: four at a time, on four compares
	// that predict well, is 40 % less than a branch a row that
	// mispredicts on every survivor.
	t := bound.dist()
	i := 0
	for ; i+4 <= len(dists); i += 4 {
		d := dists[i : i+4 : i+4]
		if d[0] > t && d[1] > t && d[2] > t && d[3] > t {
			continue
		}
		dst = keep(dst, bound, t, base+i, d)
	}
	return keep(dst, bound, t, base+i, dists[i:])
}

// keep is collect a row at a time, t bound's distance. A NaN passes the
// float compare (all do under allCands's NaN) to meet the full order.
func keep(dst []cand, bound cand, t float32, base int, dists []float32) []cand {
	for i, d := range dists {
		if !(d > t) {
			if c := makeCand(d, uint32(base+i)); c <= bound {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// selectCands returns the r smallest candidates of the lists together,
// all of them when there are no more than r, in no particular order.
// One list is selected in place; several are gathered first.
func selectCands(r int, lists ...[]cand) []cand {
	all := lists[0]
	if len(lists) > 1 {
		all = slices.Concat(lists...)
	}
	if len(all) > r {
		nthElement(all, r-1)
		all = all[:r]
	}
	return all
}

// nthElement rearranges a so that a[k] is the element a sort would put
// there, with nothing larger before it and nothing smaller after:
// quickselect on a median-of-three pivot, handing what is left to a
// sort once the range is short or the pivots have been bad for
// 2·log2(n) rounds, which bounds the whole at O(n log n). The partition
// is Lomuto's with the compare taken as a borrow bit, not a branch: on
// fresh candidates a branch here is a coin toss, and mispredicting it
// cost half again the whole select (23 µs against 15 per 2000).
func nthElement(a []cand, k int) {
	lo, hi := 0, len(a)-1
	for rounds := 2 * bits.Len(uint(len(a))); lo < hi; rounds-- {
		if hi-lo < 16 || rounds == 0 {
			slices.Sort(a[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[mid] < a[hi] {
			a[mid], a[hi] = a[hi], a[mid]
		}
		// The median of the three is at hi; everything below it moves
		// to the front of a[lo:hi], then it takes its place after them.
		pivot := a[hi]
		s := a[lo:hi]
		below := 0
		for i, c := range s {
			s[i] = s[below]
			s[below] = c
			_, lt := bits.Sub64(uint64(c), uint64(pivot), 0)
			below += int(lt)
		}
		p := lo + below
		a[p], a[hi] = a[hi], a[p]
		switch {
		case k < p:
			hi = p - 1
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
}
