package knn

// Candidate selection for the product-quantized ADC pass. The pass
// wants the R rows with the smallest ADC sums as a set — the re-rank
// that follows is a pure function of that set — so it does not pay for
// a heap: a block of sums is compared against a running bound and only
// the survivors are appended to a buffer of 2R candidates; when the
// buffer fills, a quickselect keeps the R best and tightens the bound.
//
// The retained set is exactly topk.Selector's. Both keep "the R
// smallest under (distance, id)", a property of the multiset offered
// and not of the order it arrives in: a compaction drops only
// candidates with R better ones beside them in the buffer, and the
// filter drops only candidates that rank after the R-th best seen so
// far, so neither can lose a member of the final R. That is what keeps
// serial ≡ vault-parallel ≡ tiered ≡ exact (at R >= n) bit-identical.

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

// reservoir retains the r best candidates of the blocks offered to it,
// and up to r more that a compaction has yet to drop.
type reservoir struct {
	r     int
	buf   []cand
	bound cand    // once bounded, the r-th best candidate so far: admit below it
	dist  float32 // bound's distance, the filter's first compare
	// bounded is false until the first compaction: with fewer than r
	// candidates seen, everything is admitted — a NaN included, which
	// the float compare below would turn away.
	bounded bool
	kept    int // candidates admitted, Stats.PQKept
}

// newReservoir returns a reservoir for the r best of at most rows
// candidates. A depth past rows keeps them all and is held to rows, so
// that no depth a caller can ask for overflows the buffer's size.
func newReservoir(r, rows int) *reservoir {
	r = min(r, rows)
	return &reservoir{r: r, buf: make([]cand, 0, min(2*r, rows))}
}

// offer considers rows base, base+1, … at distances dists.
func (s *reservoir) offer(base int, dists []float32) {
	i := 0
	for ; i < len(dists) && !s.bounded; i++ {
		s.admit(makeCand(dists[i], uint32(base+i)))
	}
	// The hot loop: all but a few in a hundred fail the float compare.
	// A survivor of it is then held to the full order, ties included.
	bd := s.dist
	for ; i < len(dists); i++ {
		if d := dists[i]; d <= bd {
			if c := makeCand(d, uint32(base+i)); c < s.bound {
				s.admit(c)
				bd = s.dist
			}
		}
	}
}

func (s *reservoir) admit(c cand) {
	s.buf = append(s.buf, c)
	s.kept++
	if len(s.buf) == 2*s.r {
		s.buf = selectCands(s.r, s.buf)
		s.bound = s.buf[s.r-1]
		s.dist = s.bound.dist()
		s.bounded = true
	}
}

// selectCands returns the r smallest candidates of the lists together,
// all of them when there are no more than r, in no particular order
// save that the largest comes last when any were dropped. One list is
// selected in place; several are gathered into a new one first.
func selectCands(r int, lists ...[]cand) []cand {
	all := lists[0]
	if len(lists) > 1 {
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		all = make([]cand, 0, total)
		for _, l := range lists {
			all = append(all, l...)
		}
	}
	if len(all) <= r {
		return all
	}
	nthElement(all, r-1)
	return all[:r]
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
