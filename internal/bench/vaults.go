package bench

// Vault-parallel host throughput sweep: the first point of the repo's
// perf trajectory (BENCH_05_vaults.json). Unlike the simulator-driven
// experiments this one measures wall-clock time of the real host
// engines, so its numbers depend on the machine; the committed JSON
// records GOMAXPROCS alongside the rates for that reason.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/vec"
)

// vaultCounts is the sweep's x-axis: serial, then powers of two up to
// the paper's 32-vault module.
var vaultCounts = []int{1, 2, 4, 8, 16, 32}

// VaultRow is one (workload, vault count) point of the sweep.
type VaultRow struct {
	Dataset string  `json:"dataset"`
	Dim     int     `json:"dim"`
	N       int     `json:"n"`
	K       int     `json:"k"`
	Vaults  int     `json:"vaults"`
	QPS     float64 `json:"qps"`
	Speedup float64 `json:"speedup"` // vs. vaults=1 on the same workload
}

// VaultTrajectory is the JSON shape committed as BENCH_05_vaults.json:
// enough machine context to interpret the rates later in the
// trajectory.
type VaultTrajectory struct {
	Experiment string `json:"experiment"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU records the machine's logical CPU count alongside
	// GOMAXPROCS (they differ under CPU quotas), absent from
	// trajectories recorded before it was added.
	NumCPU  int        `json:"numcpu,omitempty"`
	Scale   float64    `json:"scale"`
	Queries int        `json:"queries"`
	Rows    []VaultRow `json:"rows"`
}

// VaultSweep measures single-query host throughput of the float linear
// engine at each vault count, on the synthetic GloVe (100-d) and GIST
// (960-d) shapes. The serial threshold is forced to zero so the vault
// path is exercised even at CI-friendly scales; at vault counts beyond
// GOMAXPROCS the sweep shows the goroutine overhead the adaptive
// threshold exists to avoid.
func VaultSweep(o Options) (VaultTrajectory, error) {
	o = o.Defaults()
	out := VaultTrajectory{
		Experiment: "vaults",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      o.Scale,
		Queries:    o.Queries,
	}
	for _, spec := range []dataset.Spec{dataset.GloVeSpec(o.Scale), dataset.GISTSpec(o.Scale)} {
		ds := getDataset(spec)
		qs := clampQueries(ds.Queries, o.Queries)
		if len(qs) == 0 {
			return out, fmt.Errorf("bench: no queries for %s at scale %v", spec.Name, o.Scale)
		}
		var base float64
		for _, v := range vaultCounts {
			e := knn.NewEngine(ds.Data, ds.Dim(), vec.Euclidean, v)
			e.SetSerialThreshold(0)
			// One warm-up pass per engine so page faults and scheduler
			// ramp-up don't land in the measured loop.
			e.Search(qs[0], spec.K)
			start := time.Now()
			for _, q := range qs {
				e.Search(q, spec.K)
			}
			secs := time.Since(start).Seconds()
			qps := float64(len(qs)) / secs
			if v == 1 {
				base = qps
			}
			out.Rows = append(out.Rows, VaultRow{
				Dataset: spec.Name,
				Dim:     ds.Dim(),
				N:       ds.N(),
				K:       spec.K,
				Vaults:  v,
				QPS:     qps,
				Speedup: qps / base,
			})
		}
	}
	return out, nil
}

// VaultSweepReport formats VaultSweep.
func VaultSweepReport(o Options) (Report, error) {
	t, err := VaultSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Vault-parallel host scan: single-query throughput vs. vault count",
		Header: []string{"Dataset", "dim", "N", "vaults", "q/s", "speedup"},
		Notes: []string{
			fmt.Sprintf("wall-clock on this machine, GOMAXPROCS=%d; speedup is vs. vaults=1 per workload", t.GOMAXPROCS),
			"serial threshold forced to 0 so every vault count takes the parallel path",
		},
	}
	for _, row := range t.Rows {
		r.Rows = append(r.Rows, []string{
			row.Dataset, itoa(row.Dim), itoa(row.N), itoa(row.Vaults), f1(row.QPS), f2(row.Speedup),
		})
	}
	return r, nil
}

// WriteVaultTrajectory writes the sweep in the committed
// BENCH_05_vaults.json format (indented JSON, trailing newline).
func WriteVaultTrajectory(w io.Writer, t VaultTrajectory) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
