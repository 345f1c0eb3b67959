package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

type runConfig struct {
	w       workload
	sc      scale
	seed    int64
	measure time.Duration // all measured windows together
	smoke   bool
}

// windowPlan splits a measurement budget into windows as close to the
// scale's target length as an even count allows (even, so the two
// halves of an end-to-end run get the same number).
func windowPlan(budget, target time.Duration) (count int, length time.Duration) {
	count = 2 * max(1, int((budget/2+target/2)/target))
	return count, budget / time.Duration(count)
}

// envelope says where a result came from, so a slow set can be told
// from a slow machine.
type envelope struct {
	Workload    string  `json:"workload"`
	Why         string  `json:"why"`
	Traced      bool    `json:"traced"`
	Smoke       bool    `json:"smoke,omitempty"`
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Seed        int64   `json:"seed"`
	N           int     `json:"n"`
	Dims        int     `json:"dims"`
	K           int     `json:"k"`
	Clients     int     `json:"clients"`
	Batch       int     `json:"batch,omitempty"`
	Windows     int     `json:"windows"`
	WindowSec   float64 `json:"window_seconds"`
	StreamHash  string  `json:"op_stream_hash"`
	StreamGBs   float64 `json:"machine.stream_gb_s"`
	CalibMs     float64 `json:"machine.calib_ms"`
	StartedUnix int64   `json:"started_unix"`
}

func newEnvelope(run runConfig, traced bool, windows int, length time.Duration, in *inputs) envelope {
	commit := os.Getenv("SPINE_COMMIT") // run.sh reads it from git; a bare checkout has none
	if commit == "" {
		commit = "unknown"
	}
	return envelope{
		Workload: run.w.name, Why: run.w.why, Traced: traced, Smoke: run.smoke,
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: run.seed, N: run.sc.N, Dims: run.sc.Dims, K: run.sc.K,
		Clients: run.w.clients, Batch: run.w.batch,
		Windows: windows, WindowSec: length.Seconds(),
		StreamHash:  streamHash(run.w, run.sc, run.seed, 1000),
		StreamGBs:   streamGBs(in.data),
		CalibMs:     calibMs(),
		StartedUnix: time.Now().Unix(),
	}
}

// runEndToEnd is the untraced run every end-to-end number comes from:
//
//	generate -> [setup -> heap reading -> warm-up -> half the windows] x 2
//	         -> oracle -> verification pass
//
// Splitting the windows around a second setup means one burst of
// interference cannot cover more than half of them, and gives setup_s
// two in-process repetitions, of which the smaller is kept: like a
// window, a setup is only ever slowed by a neighbour.
func runEndToEnd(ctx context.Context, run runConfig) (*result, error) {
	in := generate(run.sc, run.seed)
	count, length := windowPlan(run.measure, run.sc.Window)
	res := newResult(newEnvelope(run, false, count, length, in))

	h, err := newHarness(run, in, false)
	if err != nil {
		return nil, err
	}
	defer h.close()

	var setups []float64
	var heapGrowth uint64
	var models []model
	region := ""
	for half := 0; half < 2; half++ {
		if region != "" {
			if err := h.cl.Free(ctx, region); err != nil {
				return nil, fmt.Errorf("free %s: %w", region, err)
			}
		}
		region = fmt.Sprintf("spine-%d", half)
		// Only the first setup starts from a heap no earlier region
		// has touched, so only it is read for memory.
		var before uint64
		if half == 0 {
			before = liveHeap()
		}
		took, err := h.setup(ctx, region)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if half == 0 {
			heapGrowth = liveHeap() - before
		}

		pr := h.runPhase(ctx, phase{region: region, index: half, warmup: run.sc.Warmup, window: length, count: count / 2})
		res.Windows = append(res.Windows, pr.windows...)
		res.tally(pr.attempted, pr.failed, pr.firstErr)
		models = pr.models
	}

	// The last region is quiesced now; replay what the clients did to
	// it and hold it to the oracle.
	rec := h.checkAgainstOracle(ctx, region, models, res)

	sum := summarize(res.Windows)
	res.set("qps", sum.QPS, "1/s")
	res.set("lat_p50_ms", sum.LatP50Ms, "ms")
	res.Counts["lat_p50_ms"] = sum.SearchCount
	res.set("recall_at_10", rec, "fraction")
	res.Counts["recall_at_10"] = run.sc.Verify
	// error_rate's complement: a metric of the manifest is never 0.
	res.set("success_rate", float64(res.Attempted-res.Failed)/float64(res.Attempted), "fraction")
	res.set("mem_amplification", float64(heapGrowth)/float64(run.sc.N*run.sc.Dims*4), "ratio")
	res.Setups = setups
	res.set("setup_s", min(setups[0], setups[1]), "s")
	res.Counts["setup_s"] = len(setups)
	return res, nil
}
