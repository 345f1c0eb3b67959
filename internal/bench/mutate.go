package bench

// Read throughput under live mutation: sweep the write fraction of a
// mixed operation stream against the mutable store (internal/mutate)
// with its background compactor running, the experiment behind the
// committed BENCH_07_mutate.json. This quantifies what the RCU
// snapshot design costs readers: writes copy tombstone bitmaps and
// take the writer mutex, but searches stay lock-free, so read QPS
// should degrade only with the physical-row growth writes cause, not
// with write-path contention.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/mutate"
	"ssam/internal/vec"
)

// writeFracs is the sweep's x-axis: read-only through a write-heavy
// half-and-half mix.
var writeFracs = []float64{0, 0.01, 0.05, 0.2, 0.5}

// mutateOpsPerQuery sets how many operations the mixed stream issues
// per configured query, so the measured loop is long enough for the
// background compactor to matter at every write fraction.
const mutateOpsPerQuery = 20

// MutateRow is one write-fraction point of the sweep.
type MutateRow struct {
	Dataset   string  `json:"dataset"`
	Dim       int     `json:"dim"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	WriteFrac float64 `json:"write_frac"` // target fraction of ops that are writes
	Reads     int     `json:"reads"`
	Writes    int     `json:"writes"`
	ReadQPS   float64 `json:"read_qps"` // reads / elapsed of the mixed loop
	WriteQPS  float64 `json:"write_qps"`
	// Post-run store state: the committed seq watermark, surviving and
	// tombstoned rows, and how many compactor passes ran under the load.
	Seq           uint64 `json:"seq"`
	Live          int    `json:"live"`
	Dead          int    `json:"dead"`
	CompactPasses uint64 `json:"compact_passes"`
	VaultRewrites uint64 `json:"vault_rewrites"`
}

// MutateTrajectory is the JSON shape committed as BENCH_07_mutate.json.
type MutateTrajectory struct {
	Experiment string      `json:"experiment"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"numcpu"`
	Scale      float64     `json:"scale"`
	Queries    int         `json:"queries"`
	Rows       []MutateRow `json:"rows"`
}

// MutateSweep measures single-threaded read throughput of the mutable
// float store on the GloVe shape while a write mix (upserts and
// deletes in equal parts, uniform over the id space) runs interleaved
// in the same stream and the background compactor reclaims tombstones
// every 10ms.
func MutateSweep(o Options) (MutateTrajectory, error) {
	o = o.Defaults()
	out := MutateTrajectory{
		Experiment: "mutate",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      o.Scale,
		Queries:    o.Queries,
	}
	spec := dataset.GloVeSpec(o.Scale)
	ds := getDataset(spec)
	qs := clampQueries(ds.Queries, o.Queries)
	if len(qs) == 0 {
		return out, fmt.Errorf("bench: no queries for %s at scale %v", spec.Name, o.Scale)
	}
	n := ds.N()
	rows := make([][]float32, n)
	ids := make([]int, n)
	for i := range rows {
		rows[i] = ds.Row(i)
		ids[i] = i
	}
	ops := len(qs) * mutateOpsPerQuery
	for _, frac := range writeFracs {
		s := mutate.NewFloat(ds.Dim(), vec.Euclidean, mutate.Options{})
		if err := s.Seed(ids, rows); err != nil {
			return out, err
		}
		s.StartCompactor(10 * time.Millisecond)
		rng := rand.New(rand.NewSource(0x1107))
		// Warm-up read so first-touch costs stay out of the loop.
		s.SearchBatch(qs[:1], spec.K, nil)
		reads, writes := 0, 0
		start := time.Now()
		for i := 0; i < ops; i++ {
			if rng.Float64() < frac {
				id := rng.Intn(n)
				if writes%2 == 0 {
					// Re-upsert with another row's content: a same-size
					// replacement, the steady-state write shape.
					s.Upsert(id, rows[rng.Intn(n)])
				} else {
					s.Delete(id)
				}
				writes++
			} else {
				s.SearchBatch([][]float32{qs[reads%len(qs)]}, spec.K, nil)
				reads++
			}
		}
		secs := time.Since(start).Seconds()
		st := s.Stats()
		s.Close()
		row := MutateRow{
			Dataset: spec.Name, Dim: ds.Dim(), N: n, K: spec.K,
			WriteFrac: frac, Reads: reads, Writes: writes,
			Seq: st.Seq, Live: st.Live, Dead: st.Dead,
			CompactPasses: st.CompactPasses, VaultRewrites: st.VaultRewrites,
		}
		if secs > 0 {
			row.ReadQPS = float64(reads) / secs
			row.WriteQPS = float64(writes) / secs
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// MutateSweepReport formats MutateSweep.
func MutateSweepReport(o Options) (Report, error) {
	t, err := MutateSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Mutable store: read throughput under a live write mix",
		Header: []string{"Dataset", "write frac", "reads/s", "writes/s", "seq", "live", "dead", "compactions"},
		Notes: []string{
			fmt.Sprintf("wall-clock on this machine, GOMAXPROCS=%d NumCPU=%d; background compactor every 10ms", t.GOMAXPROCS, t.NumCPU),
			"writes are 50:50 upsert:delete over a uniform id space; searches never block on them (RCU snapshots)",
		},
	}
	for _, row := range t.Rows {
		r.Rows = append(r.Rows, []string{
			row.Dataset, f2(row.WriteFrac), f1(row.ReadQPS), f1(row.WriteQPS),
			itoa(int(row.Seq)), itoa(row.Live), itoa(row.Dead), itoa(int(row.CompactPasses)),
		})
	}
	return r, nil
}

// WriteMutateTrajectory writes the sweep in the committed
// BENCH_07_mutate.json format (indented JSON, trailing newline).
func WriteMutateTrajectory(w io.Writer, t MutateTrajectory) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
