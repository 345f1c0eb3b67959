package mutate

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ssam/internal/knn"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// TestSearchBatchOneSnapshot pins the tiled batch scan under writes: with
// tombstones in every vault and a writer committing throughout, every
// SearchBatch answers all of its queries from the one generation its
// Stats.Seq names — each list equals a brute-force scan of that
// generation's survivors — and reports exactly B times one query's
// work. Quiesced, the batch equals per-query Search.
//
// The scan gathers live rows four to a block, so the tombstones come in
// two shapes. "fifth" kills every fifth id: a tombstone inside every
// block's worth of rows. "ragged" also leaves the vaults' live rows 3, 2
// and 1 past a multiple of four and the last vault with none at all:
// the flush of a short last block, and a scan that is offered nothing.
// One batch is answered before the writer starts, so each shape is
// scanned as built, not only as the writer left it.
func TestSearchBatchOneSnapshot(t *testing.T) {
	const n, dim, vaults, k = 600, 6, 4, 7
	shapes := []struct {
		name string
		dead func(id int) bool
	}{
		{"fifth", func(id int) bool { return id%5 == 0 }},
		{"ragged", func(id int) bool {
			// Vaults hold 150 seeded ids each, 120 after the fifth.
			return id%5 == 0 || id == 1 || id == 151 || id == 152 || (301 <= id && id <= 303) || id >= 450
		}},
	}
	for _, metric := range []vec.Metric{vec.Euclidean, vec.Manhattan, vec.Cosine} {
		for _, shape := range shapes {
			for _, forced := range []bool{true, false} { // vault-parallel, default threshold
				r := rand.New(rand.NewSource(int64(17 + metric)))
				s := NewFloat(dim, metric, Options{Vaults: vaults})
				if forced {
					s.SetSerialThreshold(0)
				}
				seed := tieRows(r, n, dim)
				if err := s.Seed(seqIDs(n), seed); err != nil {
					t.Fatal(err)
				}
				// Seed splits ids into contiguous vault chunks: every fifth id
				// leaves tombstones in all of them.
				for id := 0; id < n; id++ {
					if shape.dead(id) {
						s.Delete(id)
					}
				}
				base := s.Seq()
				if shape.name == "ragged" {
					for v, vs := range s.snap.Load().vaults {
						if live := len(vs.ids) - vs.deadN; live != []int{119, 118, 117, 0}[v] {
							t.Fatalf("vault %d holds %d live rows: the shape is not the one described", v, live)
						}
					}
				}
				for v, vs := range s.snap.Load().vaults {
					if vs.deadN == 0 {
						t.Fatalf("vault %d holds no tombstone", v)
					}
				}

				type op struct {
					seq uint64
					id  int
					row []float32 // nil: delete
				}
				type answer struct {
					qs  [][]float32
					out [][]topk.Result
					st  knn.Stats
				}
				var answers []answer
				{
					qs := tieRows(r, 5, dim)
					out, st := s.SearchBatch(qs, k, nil)
					answers = append(answers, answer{qs, out, st})
				}

				var log []op // the writer's commits, in seq order
				var wg sync.WaitGroup
				stop := make(chan struct{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					wr := rand.New(rand.NewSource(3))
					for {
						select {
						case <-stop:
							return
						default:
						}
						id := wr.Intn(n + 50)
						if wr.Intn(3) > 0 {
							row := tieRows(wr, 1, dim)[0]
							seq, err := s.Upsert(id, row)
							if err != nil {
								t.Errorf("upsert: %v", err)
								return
							}
							log = append(log, op{seq, id, row})
						} else if seq, ok := s.Delete(id); ok {
							log = append(log, op{seq: seq, id: id})
						}
					}
				}()

				for i, b := range []int{1, 2, 3, 4, 5, 16, 17, 1, 4, 16} {
					qs := tieRows(r, b, dim)
					if i%2 == 1 {
						qs[0] = make([]float32, dim) // a zero query: Cosine's special case
					}
					out, st := s.SearchBatch(qs, k, nil)
					answers = append(answers, answer{qs, out, st})
				}
				close(stop)
				wg.Wait()

				for _, a := range answers {
					if a.st.Seq < base {
						t.Fatalf("batch scanned generation %d, before %d", a.st.Seq, base)
					}
					// The generation the batch names: the seed, minus the
					// tombstoned fifth, plus the writer's commits up to Seq.
					live := map[int][]float32{}
					for id, row := range seed {
						if !shape.dead(id) {
							live[id] = row
						}
					}
					for _, o := range log {
						if o.seq > a.st.Seq {
							break
						}
						if o.row == nil {
							delete(live, o.id)
						} else {
							live[o.id] = o.row
						}
					}
					ids := make([]int, 0, len(live))
					for id := range live {
						ids = append(ids, id)
					}
					sort.Ints(ids)
					rows := make([][]float32, len(ids))
					for i, id := range ids {
						rows[i] = live[id]
					}
					for j, q := range a.qs {
						if want := oracleFloat(metric, ids, rows, q, k); !reflect.DeepEqual(a.out[j], want) {
							t.Fatalf("%v %s B=%d query %d at seq %d:\ngot  %v\nwant %v", metric, shape.name, len(a.qs), j, a.st.Seq, a.out[j], want)
						}
					}
					b := len(a.qs)
					if a.st.DistEvals != b*len(ids) || a.st.Dims != b*len(ids)*dim || a.st.PQInserts != b*len(ids) {
						t.Fatalf("%v B=%d over %d live rows: stats %+v", metric, b, len(ids), a.st)
					}
				}

				qs := tieRows(r, 9, dim)
				got, st := s.SearchBatch(qs, k, nil)
				var serial knn.Stats
				for j, q := range qs {
					want, qst := searchStats(s, q, k)
					if !reflect.DeepEqual(got[j], want) {
						t.Fatalf("%v quiesced query %d: batch %v, Search %v", metric, j, got[j], want)
					}
					serial.Add(qst)
				}
				if st.DistEvals != serial.DistEvals || st.Dims != serial.Dims || st.PQInserts != serial.PQInserts || st.Seq != serial.Seq {
					t.Fatalf("%v batch stats %+v, summed per-query %+v", metric, st, serial)
				}
				s.Close()
			}
		}
	}
}
