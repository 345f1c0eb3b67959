package bench

// Availability under replica failure: sweep the replica count of a
// p2c-routed group (internal/replica) over the GloVe shape, kill one
// replica halfway through a concurrent query run, and count what
// reaches the caller — the experiment behind the committed
// BENCH_08_replicas.json. A single copy (R=1) has nowhere to fail
// over, so the kill turns into caller-visible errors; with R>=2 the
// router fails over to surviving replicas and the error column must
// read zero. That step from "kill = outage" to "kill = invisible" is
// the entire point of the replication layer.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssam"
	"ssam/internal/dataset"
	"ssam/internal/replica"
)

// replicaCounts is the sweep's x-axis.
var replicaCounts = []int{1, 2, 3, 4}

// replicaOpsPerQuery stretches the configured query budget into a run
// long enough that the mid-run kill lands inside live traffic.
const replicaOpsPerQuery = 20

// replicaWorkers is the closed-loop concurrency driving each group.
const replicaWorkers = 4

// ReplicaRow is one replica-count point of the sweep.
type ReplicaRow struct {
	Dataset  string `json:"dataset"`
	Dim      int    `json:"dim"`
	N        int    `json:"n"`
	K        int    `json:"k"`
	Replicas int    `json:"replicas"`
	// KilledReplica is the slot fault-injected at the halfway mark.
	KilledReplica int `json:"killed_replica"`
	Queries       int `json:"queries"` // caller-level queries issued
	OK            int `json:"ok"`
	// Errors counts queries that failed at the caller — the
	// availability number; zero for R >= 2 means the kill was invisible.
	Errors    int     `json:"errors"`
	Failovers uint64  `json:"failovers"` // replica attempts re-issued after errors
	Hedges    uint64  `json:"hedges"`    // replica-level hedge attempts
	QPS       float64 `json:"qps"`
}

// ReplicaTrajectory is the JSON shape committed as
// BENCH_08_replicas.json.
type ReplicaTrajectory struct {
	Experiment string       `json:"experiment"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"numcpu"`
	Scale      float64      `json:"scale"`
	Queries    int          `json:"queries"`
	Rows       []ReplicaRow `json:"rows"`
}

// ReplicaSweep measures caller-visible availability of a replica
// group on the GloVe shape while one replica is killed mid-run:
// replicaWorkers closed-loop goroutines drive the group, the fault
// hook takes slot 0 down once half the operations have been issued,
// and every caller-level error is counted.
func ReplicaSweep(o Options) (ReplicaTrajectory, error) {
	o = o.Defaults()
	out := ReplicaTrajectory{
		Experiment: "replicas",
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
	flat := make([]float32, 0, ds.N()*ds.Dim())
	for i := 0; i < ds.N(); i++ {
		flat = append(flat, ds.Row(i)...)
	}
	ops := len(qs) * replicaOpsPerQuery

	for _, r := range replicaCounts {
		g, err := replica.NewGroup(replica.Options{Replicas: r, Hedge: r > 1, Seed: 0x0801})
		if err != nil {
			return out, err
		}
		build := func(int) (replica.Backend, error) {
			reg, err := ssam.New(ds.Dim(), ssam.Config{})
			if err != nil {
				return nil, err
			}
			if err := reg.LoadFloat32(flat); err != nil {
				reg.Free()
				return nil, err
			}
			if err := reg.BuildIndex(); err != nil {
				reg.Free()
				return nil, err
			}
			return replica.WrapRegion(reg), nil
		}
		if _, err := g.Swap(build, qs[:1], spec.K); err != nil {
			g.Free()
			return out, err
		}

		var issued atomic.Int64
		var okCount, errCount, failovers, hedges atomic.Uint64
		var killOnce sync.Once
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < replicaWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := issued.Add(1) - 1
					if i >= int64(ops) {
						return
					}
					if i >= int64(ops/2) {
						// Halfway: take slot 0 down for the rest of the run.
						killOnce.Do(func() {
							g.SetFaultHook(func(rep, _ int) error {
								if rep == 0 {
									return fmt.Errorf("injected fault: replica 0 down")
								}
								return nil
							})
						})
					}
					qi := int(i) % len(qs)
					resp, err := g.Search(qs[qi:qi+1], spec.K, nil)
					if err != nil {
						errCount.Add(1)
						continue
					}
					okCount.Add(1)
					failovers.Add(uint64(resp.Failovers))
					hedges.Add(uint64(resp.Hedges))
				}
			}(w)
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		g.Free()

		row := ReplicaRow{
			Dataset: spec.Name, Dim: ds.Dim(), N: ds.N(), K: spec.K,
			Replicas: r, KilledReplica: 0, Queries: ops,
			OK: int(okCount.Load()), Errors: int(errCount.Load()),
			Failovers: failovers.Load(), Hedges: hedges.Load(),
		}
		if secs > 0 {
			row.QPS = float64(okCount.Load()) / secs
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// ReplicaSweepReport formats ReplicaSweep.
func ReplicaSweepReport(o Options) (Report, error) {
	t, err := ReplicaSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Replica groups: availability while one replica is killed mid-run",
		Header: []string{"Dataset", "replicas", "queries", "ok", "errors", "failovers", "hedges", "qps"},
		Notes: []string{
			fmt.Sprintf("wall-clock on this machine, GOMAXPROCS=%d NumCPU=%d; %d closed-loop workers", t.GOMAXPROCS, t.NumCPU, replicaWorkers),
			"replica 0 is fault-injected at the halfway mark; errors must be zero for replicas >= 2 (failover absorbs the kill)",
		},
	}
	for _, row := range t.Rows {
		r.Rows = append(r.Rows, []string{
			row.Dataset, itoa(row.Replicas), itoa(row.Queries), itoa(row.OK),
			itoa(row.Errors), itoa(int(row.Failovers)), itoa(int(row.Hedges)), f1(row.QPS),
		})
	}
	return r, nil
}

// WriteReplicaTrajectory writes the sweep in the committed
// BENCH_08_replicas.json format (indented JSON, trailing newline).
func WriteReplicaTrajectory(w io.Writer, t ReplicaTrajectory) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
