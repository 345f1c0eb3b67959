package bench

import (
	"ssam"
	"ssam/internal/cluster"
	"ssam/internal/dataset"
)

// ShardRow is one shard-count point of the scatter-gather sweep.
type ShardRow struct {
	Shards  int
	QPS     float64 // from the slowest shard's simulated device latency
	Speedup float64 // vs. the single-shard cluster
	PUs     int     // total processing units across shards
}

// ShardSweep measures the serving-layer cluster (internal/cluster) the
// way Fig. 9 measures module composition: the same GloVe workload
// partitioned across 1..8 device-execution shards, each shard its own
// simulated SSAM module, with query latency set by the slowest shard
// (the fan-out critical path) and host-side top-k merge assumed free.
func ShardSweep(o Options) ([]ShardRow, error) {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	qs := clampQueries(ds.Queries, o.Queries)

	var rows []ShardRow
	for _, shards := range []int{1, 2, 4, 8} {
		cl, err := cluster.New(ds.Dim(), ssam.Config{
			Execution:    ssam.Device,
			VectorLength: o.VectorLength,
		}, cluster.Options{Shards: shards})
		if err != nil {
			return nil, err
		}
		if err := cl.LoadFloat32(ds.Data); err != nil {
			cl.Free()
			return nil, err
		}
		if err := cl.BuildIndex(); err != nil {
			cl.Free()
			return nil, err
		}
		var secs float64
		var pus int
		for i := range qs {
			resp, err := cl.Search(qs[i:i+1], ds.Spec.K, nil)
			if err != nil {
				cl.Free()
				return nil, err
			}
			st := resp.Stats
			secs += st.Combined.Seconds
			pus = st.Combined.ProcessingUnits
		}
		cl.Free()
		rows = append(rows, ShardRow{Shards: shards, QPS: float64(len(qs)) / secs, PUs: pus})
	}
	base := rows[0].QPS
	for i := range rows {
		rows[i].Speedup = rows[i].QPS / base
	}
	return rows, nil
}

// ShardSweepReport formats ShardSweep.
func ShardSweepReport(o Options) (Report, error) {
	rows, err := ShardSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Scatter-gather sharding: one dataset partitioned across SSAM shard clusters",
		Header: []string{"Shards", "q/s", "speedup", "total PUs"},
		Notes: []string{
			"each shard is an independent simulated device module; query latency is the slowest shard's",
		},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{itoa(row.Shards), f1(row.QPS), f2(row.Speedup), itoa(row.PUs)})
	}
	return r, nil
}
