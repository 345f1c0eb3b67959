package bench

import (
	"fmt"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/platform"
	"ssam/internal/power"
	"ssam/internal/ssamdev"
	"ssam/internal/tco"
	"ssam/internal/vec"
)

// PQRow is one vector length's hardware-vs-software priority queue
// comparison (the Section V-B ablation).
type PQRow struct {
	VectorLength int
	HWCycles     uint64
	SWCycles     uint64
	SpeedupPct   float64 // (SW - HW) / SW * 100
}

// PQAblation quantifies the hardware priority queue's benefit by
// running the same Euclidean scan with the single-cycle hardware queue
// and with the modeled software insert routine. The paper reports up
// to 9.2% for wider vector units, where the per-vector compute shrinks
// and queue overhead is proportionally larger.
func PQAblation(o Options) ([]PQRow, error) {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	qs := clampQueries(ds.Queries, o.Queries)
	var rows []PQRow
	for _, vlen := range power.SupportedVectorLengths() {
		run := func(software bool) (uint64, error) {
			cfg := ssamdev.DefaultConfig(vlen)
			cfg.PU.SoftwareQueue = software
			dev, err := ssamdev.NewFloat(cfg, ds.Data, ds.Dim(), vec.Euclidean)
			if err != nil {
				return 0, err
			}
			var cycles uint64
			for _, q := range qs {
				_, st, err := dev.Search(q, ds.Spec.K)
				if err != nil {
					return 0, err
				}
				cycles += st.Cycles
			}
			return cycles, nil
		}
		hw, err := run(false)
		if err != nil {
			return nil, err
		}
		sw, err := run(true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PQRow{
			VectorLength: vlen,
			HWCycles:     hw,
			SWCycles:     sw,
			SpeedupPct:   100 * float64(sw-hw) / float64(sw),
		})
	}
	return rows, nil
}

// PQAblationReport formats PQAblation.
func PQAblationReport(o Options) (Report, error) {
	rows, err := PQAblation(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Section V-B ablation: hardware vs software priority queue (paper: up to 9.2% for wider vector units)",
		Header: []string{"Design", "HW cycles", "SW cycles", "HW speedup"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("SSAM-%d", row.VectorLength),
			u64(row.HWCycles), u64(row.SWCycles), f2(row.SpeedupPct) + "%",
		})
	}
	return r, nil
}

// FixedRow is one dataset's float-vs-fixed-point agreement.
type FixedRow struct {
	Dataset string
	// Recall is the fixed-point engine's neighbor-set recall against
	// exact float search (Section II-D: "negligible accuracy loss").
	Recall float64
}

// FixedPoint reproduces the fixed-point representation study.
func FixedPoint(o Options) []FixedRow {
	o = o.Defaults()
	var rows []FixedRow
	for _, spec := range dataset.AllSpecs(o.Scale) {
		ds := getDataset(spec)
		qs := clampQueries(ds.Queries, o.Queries)
		gt := knn.GroundTruth(ds.Data, ds.Dim(), qs, spec.K)
		fx := knn.NewFixedEngine(ds.ToFixed(), ds.Dim(), vec.Euclidean, 0)
		var recall float64
		for i, q := range qs {
			res := fx.Search(vec.ToFixedVec(q), spec.K)
			recall += dataset.Recall(gt[i], res)
		}
		rows = append(rows, FixedRow{Dataset: spec.Name, Recall: recall / float64(len(qs))})
	}
	return rows
}

// FixedPointReport formats FixedPoint.
func FixedPointReport(o Options) Report {
	r := Report{
		Title:  "Section II-D: 32-bit fixed point vs float accuracy (paper: negligible loss)",
		Header: []string{"Dataset", "Fixed-point recall"},
	}
	for _, row := range FixedPoint(o) {
		r.Rows = append(r.Rows, []string{row.Dataset, f3(row.Recall)})
	}
	return r
}

// TCO runs the Section VI-A cost analysis with the GIST workload:
// the CPU per-server throughput from the platform roofline and the
// SSAM per-module throughput from the simulator.
func TCO(o Options) (tco.Result, tco.Params, error) {
	o = o.Defaults()
	spec := dataset.GISTSpec(o.Scale)
	ds := getDataset(spec)
	full := paperN(spec.Name)

	cpuQPS := platform.XeonE5().LinearQPS(full, spec.Dim)

	dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(o.VectorLength), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		return tco.Result{}, tco.Params{}, err
	}
	qs := clampQueries(ds.Queries, o.Queries)
	var secs float64
	for _, q := range qs {
		_, st, err := dev.Search(q, spec.K)
		if err != nil {
			return tco.Result{}, tco.Params{}, err
		}
		secs += st.Seconds
	}
	ssamQPS := extrapolateQPS(float64(len(qs))/secs, ds.N(), full)

	p := tco.PaperParams(cpuQPS, ssamQPS)
	pw, err := power.AcceleratorPower(o.VectorLength)
	if err != nil {
		return tco.Result{}, tco.Params{}, err
	}
	p.SSAMModulePowerW = pw.Total()
	p.NRECost = tco.NRE28nm
	// Fleet capex at commodity prices; the paper's analysis covers
	// compute energy only, but at self-consistent energy arithmetic
	// the capex consolidation is where the savings accrue.
	p.CapexPerCPUServer = 4000
	p.CapexPerSSAMServer = 6000
	return tco.Analyze(p), p, nil
}

// TCOReport formats TCO.
func TCOReport(o Options) (Report, error) {
	res, p, err := TCO(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Section VI-A: datacenter cost of specialization (GIST workload)",
		Header: []string{"Quantity", "Value"},
		Rows: [][]string{
			{"unique queries/s", f1(res.UniqueQPS)},
			{"CPU q/s/server", f2(p.CPUQPSPerServer)},
			{"CPU servers", itoa(res.CPUServers)},
			{"CPU fleet power (kW)", f2(res.CPUFleetPowerW / 1000)},
			{"CPU 3-yr energy cost ($M)", f3(res.CPUEnergyCost / 1e6)},
			{"SSAM q/s/module", f2(p.SSAMQPSPerModule)},
			{"SSAM modules", itoa(res.SSAMModules)},
			{"SSAM fleet power (kW)", f2(res.SSAMFleetPowerW / 1000)},
			{"SSAM 3-yr energy cost ($M)", f3(res.SSAMEnergyCost / 1e6)},
			{"energy savings ($M)", f3(res.EnergySavings / 1e6)},
			{"CPU fleet capex ($M)", f3(res.CPUCapex / 1e6)},
			{"SSAM fleet capex ($M)", f3(res.SSAMCapex / 1e6)},
			{"total savings ($M)", f3(res.TotalSavings / 1e6)},
			{"NRE ($M)", f1(p.NRECost / 1e6)},
			{"net savings ($M)", f3(res.NetSavings / 1e6)},
			{"cost effective", fmt.Sprintf("%v", res.CostEffective)},
		},
		Notes: []string{"paper reference: ~1800 CPU servers, $772M vs $4.69M over 3 years (see EXPERIMENTS.md on the paper's energy arithmetic)"},
	}
	return r, nil
}
