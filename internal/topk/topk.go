// Package topk implements the global top-k reduction of kNN: a bounded
// software selector (max-heap) used by the algorithm engines, and a
// cycle-annotated model of the shift-register hardware priority queue
// the SSAM accelerator instantiates (Section III-C, after Moon et
// al.'s scalable hardware priority queues).
package topk

import "sort"

// Result is one neighbor candidate: the database id and its distance
// under whatever metric the engine used (lower is closer).
type Result struct {
	ID   int
	Dist float64
}

// Selector keeps the k smallest results seen so far using a bounded
// binary max-heap ordered by the total order (ascending distance, ties
// by ascending id). Because admission and eviction both follow the
// total order, the retained set is exactly the k smallest candidates
// of the stream — independent of push order, and therefore identical
// whether one selector scans a whole database or per-vault selectors
// scan contiguous slices that are merged with MergeSorted. That
// push-order independence is the property the vault-parallel engines
// (internal/knn) and the sharded scatter-gather layer
// (internal/cluster) lean on for bit-exact equivalence with a serial
// scan. The zero value is not usable; call New.
type Selector struct {
	k    int
	heap []Result // max-heap under worse (Dist, then ID)
}

// worse reports whether a ranks strictly after b under the total order
// (ascending distance, ties by ascending id) — i.e. a is the worse
// candidate of the two.
func worse(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// New returns a Selector that retains the k closest results. k must be
// positive.
func New(k int) *Selector {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Selector{k: k, heap: make([]Result, 0, k)}
}

// K returns the selector's capacity.
func (s *Selector) K() int { return s.k }

// Len returns how many results are currently held.
func (s *Selector) Len() int { return len(s.heap) }

// Bound returns the current k-th smallest distance, i.e. the threshold
// a new candidate must beat (or tie while carrying a smaller id) to be
// admitted once the selector is full. Before the selector is full it
// returns +Inf semantics via ok=false.
func (s *Selector) Bound() (dist float64, ok bool) {
	if len(s.heap) < s.k {
		return 0, false
	}
	return s.heap[0].Dist, true
}

// Push offers a candidate. It returns true if the candidate was kept.
// Once the selector is full a candidate displaces the current worst
// exactly when it precedes it under the total order (smaller distance,
// or equal distance and smaller id), so boundary ties resolve to the
// lowest ids no matter the arrival order. A scan rejects nearly every
// offer against a full selector on distance alone, so that case is one
// compare sized to inline into the scan loop; the rest goes to offer.
func (s *Selector) Push(id int, dist float64) bool {
	if len(s.heap) == s.k && s.heap[0].Dist < dist {
		return false
	}
	return s.offer(id, dist)
}

// offer is Push for the candidates its compare cannot settle: the
// selector has room, the candidate ties or beats the current worst
// distance, or a distance is NaN. It applies the total order in full.
func (s *Selector) offer(id int, dist float64) bool {
	c := Result{ID: id, Dist: dist}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, c)
		s.siftUp(len(s.heap) - 1)
		return true
	}
	if !worse(s.heap[0], c) {
		return false
	}
	s.heap[0] = c
	s.siftDown(0)
	return true
}

// Results returns the retained results sorted by ascending distance,
// ties broken by ascending id for determinism. The selector remains
// usable afterwards.
func (s *Selector) Results() []Result {
	out := make([]Result, len(s.heap))
	copy(out, s.heap)
	SortResults(out)
	return out
}

// Reset empties the selector, retaining capacity.
func (s *Selector) Reset() { s.heap = s.heap[:0] }

func (s *Selector) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(s.heap[i], s.heap[p]) {
			return
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *Selector) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && worse(s.heap[l], s.heap[big]) {
			big = l
		}
		if r < n && worse(s.heap[r], s.heap[big]) {
			big = r
		}
		if big == i {
			return
		}
		s.heap[i], s.heap[big] = s.heap[big], s.heap[i]
		i = big
	}
}

// SortResults sorts results by ascending distance, then ascending id.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].ID < rs[j].ID
	})
}

// MergeSorted combines per-partition top-k lists (each already sorted
// or not) into the global top-k under the total order (ascending
// distance, ties by ascending id) — the "final set of global top-k
// reductions on the host processor" from Section III-D. The result is
// independent of list order and of how candidates were partitioned,
// the property the vault-parallel engines and the sharded
// scatter-gather layer (internal/cluster) need for equivalence with a
// serial scan.
func MergeSorted(k int, lists ...[]Result) []Result {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	all := make([]Result, 0, total)
	for _, l := range lists {
		all = append(all, l...)
	}
	SortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}
