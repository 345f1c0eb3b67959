package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSelectorBasic(t *testing.T) {
	s := New(3)
	for id, d := range []float64{5, 1, 4, 2, 3} {
		s.Push(id, d)
	}
	got := s.Results()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	wantIDs := []int{1, 3, 4} // distances 1, 2, 3
	for i, w := range wantIDs {
		if got[i].ID != w {
			t.Errorf("result %d = %+v, want id %d", i, got[i], w)
		}
	}
}

func TestSelectorUnderfilled(t *testing.T) {
	s := New(10)
	s.Push(7, 0.5)
	got := s.Results()
	if len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("Results = %v", got)
	}
	if _, ok := s.Bound(); ok {
		t.Fatal("Bound ok on underfilled selector")
	}
}

func TestSelectorBound(t *testing.T) {
	s := New(2)
	s.Push(0, 10)
	s.Push(1, 20)
	d, ok := s.Bound()
	if !ok || d != 20 {
		t.Fatalf("Bound = %v, %v; want 20, true", d, ok)
	}
	if s.Push(2, 25) {
		t.Fatal("admitted candidate worse than bound")
	}
	if !s.Push(3, 5) {
		t.Fatal("rejected candidate better than bound")
	}
	d, _ = s.Bound()
	if d != 10 {
		t.Fatalf("Bound after push = %v, want 10", d)
	}
}

func TestSelectorReset(t *testing.T) {
	s := New(2)
	s.Push(0, 1)
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	s.Push(9, 9)
	if got := s.Results(); len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("Results after reset = %v", got)
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestDeterministicTieBreak(t *testing.T) {
	s := New(2)
	s.Push(5, 1)
	s.Push(2, 1)
	s.Push(9, 1)
	got := s.Results()
	if got[0].ID > got[1].ID {
		t.Fatalf("ties not id-ordered: %v", got)
	}
}

// Property: the selector returns exactly the k smallest distances of
// the stream, matching a full sort.
func TestSelectorMatchesSortQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200) + 1
		k := r.Intn(20) + 1
		dists := make([]float64, n)
		s := New(k)
		for i := range dists {
			dists[i] = float64(r.Intn(50)) // duplicates likely
			s.Push(i, dists[i])
		}
		got := s.Results()
		want := make([]Result, n)
		for i, d := range dists {
			want[i] = Result{ID: i, Dist: d}
		}
		SortResults(want)
		if k > n {
			k = n
		}
		want = want[:k]
		if len(got) != len(want) {
			return false
		}
		// Distances must match exactly; ids may differ among equal
		// distances only at the truncation boundary.
		for i := range got {
			if got[i].Dist != want[i].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	a := []Result{{ID: 1, Dist: 1}, {ID: 2, Dist: 4}}
	b := []Result{{ID: 3, Dist: 2}, {ID: 4, Dist: 3}}
	got := MergeSorted(3, a, b)
	wantIDs := []int{1, 3, 4}
	if len(got) != 3 {
		t.Fatalf("Merge len = %d", len(got))
	}
	for i, w := range wantIDs {
		if got[i].ID != w {
			t.Errorf("Merge[%d] = %+v, want id %d", i, got[i], w)
		}
	}
}

// Property: merging partitioned streams equals selecting over the
// union — the host-side global reduction is lossless.
func TestMergePartitionQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(300) + 10
		k := r.Intn(16) + 1
		parts := r.Intn(7) + 1
		all := New(k)
		lists := make([][]Result, parts)
		sels := make([]*Selector, parts)
		for p := range sels {
			sels[p] = New(k)
		}
		for i := 0; i < n; i++ {
			d := r.Float64()
			all.Push(i, d)
			sels[i%parts].Push(i, d)
		}
		for p := range sels {
			lists[p] = sels[p].Results()
		}
		got := MergeSorted(k, lists...)
		want := all.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSortResultsStable(t *testing.T) {
	rs := []Result{{3, 2}, {1, 2}, {2, 1}}
	SortResults(rs)
	if !sort.SliceIsSorted(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].ID < rs[j].ID
	}) {
		t.Fatalf("not sorted: %v", rs)
	}
}

func TestMergeSortedDeterministic(t *testing.T) {
	a := []Result{{ID: 0, Dist: 1}, {ID: 4, Dist: 3}}
	b := []Result{{ID: 2, Dist: 1}, {ID: 1, Dist: 3}, {ID: 9, Dist: 3}}
	want := []Result{{ID: 0, Dist: 1}, {ID: 2, Dist: 1}, {ID: 1, Dist: 3}}
	for _, lists := range [][][]Result{{a, b}, {b, a}} {
		got := MergeSorted(3, lists...)
		if len(got) != len(want) {
			t.Fatalf("MergeSorted returned %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MergeSorted returned %v, want %v (list order %v)", got, want, lists)
			}
		}
	}
}

func TestMergeSortedShort(t *testing.T) {
	got := MergeSorted(10, []Result{{ID: 1, Dist: 2}}, nil, []Result{{ID: 0, Dist: 1}})
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("MergeSorted with fewer candidates than k = %v", got)
	}
}
