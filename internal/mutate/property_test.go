package mutate

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssam/internal/topk"
	"ssam/internal/vec"
)

// TestMutationEquivalenceFloat is the tentpole property: after ANY
// interleaving of upserts and deletes, Search over the live store is
// bit-identical — ids, order, and float64 distances — to a serial
// oracle over the surviving rows, across metrics × vault counts ×
// boundary k, on tie-heavy data. Periodic CompactOnce calls inside the
// interleaving pin that compaction is invisible too.
func TestMutationEquivalenceFloat(t *testing.T) {
	const dim = 4
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
		for _, vaults := range []int{1, 4, 32} {
			t.Run(fmt.Sprintf("%v-vaults%d", metric, vaults), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(41*vaults) + int64(metric)))
				s := NewFloat(dim, metric, Options{Vaults: vaults, GarbageThreshold: 0.2})
				s.SetSerialThreshold(0)
				// Model of the store's logical content.
				model := map[int][]float32{}
				newRow := func() []float32 {
					v := make([]float32, dim)
					for j := range v {
						// Offset keeps cosine distance defined (no zero vectors).
						v[j] = float32(r.Intn(3)) + 0.25
					}
					return v
				}
				var lastSeq uint64
				for step := 0; step < 400; step++ {
					id := r.Intn(60)
					switch {
					case r.Float64() < 0.65 || len(model) == 0:
						row := newRow()
						seq, err := s.Upsert(id, row)
						if err != nil {
							t.Fatalf("step %d: upsert: %v", step, err)
						}
						if seq <= lastSeq {
							t.Fatalf("step %d: seq %d not monotonic after %d", step, seq, lastSeq)
						}
						lastSeq = seq
						model[id] = row
					default:
						_, present := model[id]
						seq, ok := s.Delete(id)
						if ok != present {
							t.Fatalf("step %d: delete(%d) ok=%v, model says %v", step, id, ok, present)
						}
						if ok {
							if seq <= lastSeq {
								t.Fatalf("step %d: seq %d not monotonic after %d", step, seq, lastSeq)
							}
							lastSeq = seq
							delete(model, id)
						}
					}
					if step%97 == 0 {
						s.CompactOnce()
					}
					if step%13 != 0 {
						continue
					}
					ids := make([]int, 0, len(model))
					rows := make([][]float32, 0, len(model))
					for id := range model {
						ids = append(ids, id)
					}
					sortIDs(ids)
					for _, id := range ids {
						rows = append(rows, model[id])
					}
					live := len(ids)
					for _, k := range []int{1, live - 1, live, live + 5} {
						if k <= 0 {
							continue
						}
						q := newRow()
						got, st := searchStats(s, q, k)
						want := oracleFloat(metric, ids, rows, q, k)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("step %d k=%d: store\n%v\noracle\n%v", step, k, got, want)
						}
						if st.Seq != lastSeq {
							t.Fatalf("step %d: stats seq %d, committed %d", step, st.Seq, lastSeq)
						}
						if st.DistEvals != live {
							t.Fatalf("step %d: scanned %d rows, %d live", step, st.DistEvals, live)
						}
					}
					// The store's own survivors view agrees with the model.
					sIDs, _ := s.Survivors()
					if !reflect.DeepEqual(sIDs, ids) {
						t.Fatalf("step %d: survivors %v != model %v", step, sIDs, ids)
					}
				}
			})
		}
	}
}

func sortIDs(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestMutationEquivalenceFixedBinary runs a shorter interleaving over
// the Hamming store against its oracle. (Its fixed-point half went with
// the fixed-point store.)
func TestMutationEquivalenceFixedBinary(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	b := NewBinary(16, Options{Vaults: 4})
	b.SetSerialThreshold(0)
	bModel := map[int]vec.Binary{}
	randCode := func() vec.Binary {
		c := vec.NewBinary(16)
		for i := 0; i < 16; i++ {
			c.Set(i, r.Intn(2) == 1)
		}
		return c
	}
	for step := 0; step < 200; step++ {
		id := r.Intn(40)
		if r.Float64() < 0.7 || len(bModel) == 0 {
			code := randCode()
			if _, err := b.Upsert(id, code); err != nil {
				t.Fatal(err)
			}
			bModel[id] = code
		} else {
			b.Delete(id)
			delete(bModel, id)
		}
		if step%41 == 0 {
			b.CompactOnce()
		}
		if step%17 != 0 {
			continue
		}
		q := randCode()
		got := search(b, q, 7)
		sel := topk.New(7)
		for id, code := range bModel {
			sel.Push(id, float64(vec.Hamming(q, code)))
		}
		if want := sel.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("binary step %d: %v != %v", step, got, want)
		}
	}
}

// TestSearchDuringCompactionSoak races searchers against a mutator and
// a compaction loop under the race detector. Each search must return a
// result set with no duplicated ids, sorted under the (distance, id)
// total order, with a sequence number that never moves backwards —
// i.e. every query observed exactly one consistent generation.
func TestSearchDuringCompactionSoak(t *testing.T) {
	const (
		dim      = 4
		idSpace  = 128
		seedRows = 512
	)
	s := NewFloat(dim, vec.Euclidean, Options{Vaults: 4, GarbageThreshold: 0.05, RebalanceFactor: 1.2})
	s.SetSerialThreshold(0)
	seedR := rand.New(rand.NewSource(1))
	rows := tieRows(seedR, seedRows, dim)
	ids := make([]int, seedRows)
	for i := range ids {
		ids[i] = i
	}
	if err := s.Seed(ids, rows); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Mutator: continuous upserts and deletes over a bounded id space,
	// so the same ids churn and tombstones accumulate fast.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(2))
		for i := 0; i < 4000; i++ {
			id := r.Intn(idSpace)
			if r.Float64() < 0.5 {
				v := make([]float32, dim)
				for j := range v {
					v[j] = float32(r.Intn(3))
				}
				if _, err := s.Upsert(id, v); err != nil {
					t.Errorf("upsert: %v", err)
					return
				}
			} else {
				s.Delete(id)
			}
		}
		stop.Store(true)
	}()

	// Compactor: hammer CompactOnce concurrently with the background
	// ticker variant for good measure.
	s.StartCompactor(time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Do-while, not while: if the mutator finishes before this
		// goroutine is first scheduled, a pre-checked loop would exit
		// with zero passes and trip the CompactPasses assertion below.
		for {
			s.CompactOnce()
			if stop.Load() {
				break
			}
		}
	}()

	// Searchers: validate per-result invariants and seq monotonicity.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			var lastSeq uint64
			for !stop.Load() {
				q := make([]float32, dim)
				for j := range q {
					q[j] = float32(r.Intn(3))
				}
				k := 1 + r.Intn(20)
				res, st := searchStats(s, q, k)
				if st.Seq < lastSeq {
					t.Errorf("searcher %d: seq went backwards %d -> %d", g, lastSeq, st.Seq)
					return
				}
				lastSeq = st.Seq
				seen := map[int]bool{}
				for i, rr := range res {
					if seen[rr.ID] {
						t.Errorf("searcher %d: duplicate id %d in %v", g, rr.ID, res)
						return
					}
					seen[rr.ID] = true
					if i > 0 && (rr.Dist < res[i-1].Dist || (rr.Dist == res[i-1].Dist && rr.ID < res[i-1].ID)) {
						t.Errorf("searcher %d: order violated at %d: %v", g, i, res)
						return
					}
				}
				if len(res) > k {
					t.Errorf("searcher %d: %d results for k=%d", g, len(res), k)
					return
				}
			}
		}(g)
	}

	wg.Wait()
	s.Close()

	// Quiesced store still agrees with its own survivors oracle.
	ids2, rows2 := s.Survivors()
	q := make([]float32, dim)
	got := search(s, q, 33)
	want := oracleFloat(vec.Euclidean, ids2, rows2, q, 33)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-soak divergence:\n%v\n%v", got, want)
	}
	if s.Stats().CompactPasses == 0 {
		t.Fatal("soak never ran a compaction pass")
	}
}
