package bench

// Quantized-scan throughput: the experiment behind the committed
// BENCH_09_pq.json. The ADC scan reads M code bytes per row instead
// of dim floats, so per-query work (and device-side DRAM traffic)
// drops by ~4·dim/M; the sweep measures what that buys in wall-clock
// QPS against the exact float32 linear scan at matched recall, with
// the re-rank depth as the accuracy knob. Wall-clock rates depend on
// the machine, so the trajectory records GOMAXPROCS and NumCPU like
// the vault sweep does.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// pqMs is the subquantizer-count sweep: code bytes per row. Larger M
// means finer quantization (higher ADC recall) and a heavier scan.
var pqMs = []int{8, 16}

// pqReranks is the re-rank sweep — the accuracy/throughput knob, the
// quantized analogue of figure2Knobs. 0 is the ADC-only floor; the
// deep end matters because gist128's clusters hold ~1%-of-n near-tie
// rows each, so the re-rank must cover a cluster to recover the exact
// top-k ordering inside it (still only ~2% of the rows the float scan
// reads).
var pqReranks = []int{0, 50, 200, 500, 1000, 2000}

// PQSweepRow is one (M, rerank) point of the sweep.
type PQSweepRow struct {
	M            int     `json:"m"`
	Rerank       int     `json:"rerank"`
	Recall       float64 `json:"recall"`
	QPS          float64 `json:"qps"`
	Speedup      float64 `json:"speedup"`       // vs. the exact float32 linear scan
	CodeBytes    int     `json:"code_bytes"`    // resident code size, n·M
	BuildSeconds float64 `json:"build_seconds"` // codebook training + encoding, once per M
}

// PQTrajectory is the JSON shape committed as BENCH_09_pq.json.
type PQTrajectory struct {
	Experiment string `json:"experiment"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU records the machine's logical CPU count alongside
	// GOMAXPROCS (they differ under CPU quotas).
	NumCPU     int          `json:"numcpu"`
	Scale      float64      `json:"scale"`
	Queries    int          `json:"queries"`
	Dataset    string       `json:"dataset"`
	N          int          `json:"n"`
	Dim        int          `json:"dim"`
	K          int          `json:"k"`
	FloatBytes int          `json:"float_bytes"` // n·dim·4, what the exact scan reads
	LinearQPS  float64      `json:"linear_qps"`  // exact float32 baseline
	Rows       []PQSweepRow `json:"rows"`
}

// BestSpeedupAtRecall returns the highest speedup among rows with
// recall >= floor (the acceptance bar: >= 5x at recall >= 0.95), or 0
// if no row reaches the floor.
func (t PQTrajectory) BestSpeedupAtRecall(floor float64) float64 {
	best := 0.0
	for _, r := range t.Rows {
		if r.Recall >= floor && r.Speedup > best {
			best = r.Speedup
		}
	}
	return best
}

// PQSweep measures single-query host throughput and recall@k of the
// product-quantized engine against the exact float32 linear scan,
// single-threaded (the Fig. 2 methodology), on the gist128 workload.
// Each M trains one codebook; the re-rank depth is then swept on the
// same engine, so the sweep isolates the accuracy knob from training
// noise.
func PQSweep(o Options) (PQTrajectory, error) {
	o = o.Defaults()
	spec := GIST128Spec(o.Scale)
	ds := getDataset(spec)
	k := spec.K
	qs := clampQueries(ds.Queries, o.Queries)
	if len(qs) == 0 {
		return PQTrajectory{}, fmt.Errorf("bench: no queries for %s at scale %v", spec.Name, o.Scale)
	}
	out := PQTrajectory{
		Experiment: "pq",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      o.Scale,
		Queries:    len(qs),
		Dataset:    spec.Name,
		N:          ds.N(),
		Dim:        ds.Dim(),
		K:          k,
		FloatBytes: ds.N() * ds.Dim() * 4,
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), qs, k)

	// Exact baseline: the serial float32 scan the speedups are against.
	lin := knn.NewEngine(ds.Data, ds.Dim(), vec.Euclidean, 1)
	out.LinearQPS = measureQPS(qs, func(q []float32) { lin.Search(q, k) })

	for _, m := range pqMs {
		if m > ds.Dim() {
			continue
		}
		start := time.Now()
		e, err := knn.NewPQScan(ds.Data, ds.Dim(), vec.Euclidean,
			knn.PQParams{M: m, Seed: 0x9}, 1, nil)
		if err != nil {
			return out, err
		}
		search := func(q []float32) []topk.Result {
			res, _, _, err := e.RunBatch([][]float32{q}, k, nil)
			if err != nil {
				panic(err) // resident rows: a query of the wrong width
			}
			return res[0]
		}
		build := time.Since(start).Seconds()
		e.SetSerialThreshold(0)
		for _, rr := range pqReranks {
			if rr > ds.N() {
				continue
			}
			e.SetRerank(rr)
			recall := 0.0
			for i, q := range qs {
				recall += dataset.Recall(gt[i], search(q))
			}
			qps := measureQPS(qs, func(q []float32) { search(q) })
			out.Rows = append(out.Rows, PQSweepRow{
				M:            m,
				Rerank:       rr,
				Recall:       recall / float64(len(qs)),
				QPS:          qps,
				Speedup:      qps / out.LinearQPS,
				CodeBytes:    ds.N() * m,
				BuildSeconds: build,
			})
		}
	}
	return out, nil
}

// PQSweepReport formats PQSweep, with the recall@0.95 speedup
// comparison (the acceptance bar) in the notes.
func PQSweepReport(o Options) (Report, error) {
	t, err := PQSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title: fmt.Sprintf("Quantized scan: recall@%d vs. QPS on %s (%d x %dd)",
			t.K, t.Dataset, t.N, t.Dim),
		Header: []string{"M", "rerank", "recall", "q/s", "speedup", "code MiB", "build s"},
		Notes: []string{
			fmt.Sprintf("wall-clock on this machine, GOMAXPROCS=%d NumCPU=%d, single-threaded queries", t.GOMAXPROCS, t.NumCPU),
			fmt.Sprintf("exact float32 linear baseline: %.1f q/s over %.1f MiB", t.LinearQPS, float64(t.FloatBytes)/(1<<20)),
			"speedup is vs. that baseline; rerank is the accuracy knob (0 = ADC only)",
		},
	}
	for _, row := range t.Rows {
		r.Rows = append(r.Rows, []string{
			itoa(row.M), itoa(row.Rerank), f3(row.Recall), f1(row.QPS),
			f2(row.Speedup), f2(float64(row.CodeBytes) / (1 << 20)), f2(row.BuildSeconds),
		})
	}
	if best := t.BestSpeedupAtRecall(0.95); best > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("best speedup at recall>=0.95: %.2fx", best))
	} else {
		r.Notes = append(r.Notes, "no configuration reaches recall 0.95")
	}
	return r, nil
}

// WritePQTrajectory writes the sweep in the committed BENCH_09_pq.json
// format (indented JSON, trailing newline).
func WritePQTrajectory(w io.Writer, t PQTrajectory) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
