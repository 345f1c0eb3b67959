// Command ssam-bench regenerates the tables and figures of the SSAM
// paper's evaluation, and the extension studies built on the same
// simulator and engines.
//
// Usage:
//
//	ssam-bench [-exp ID|all] [-scale 0.004] [-queries 10] [-vlen 2|4|8|16]
//	           [-format table|csv|json]
//
// ID is one of table1 … table6, fig2, fig6, fig7, pqueue, fixed, tco
// (the paper), build, offload, devbuild, devindex, devlsh, devmix,
// energy, cluster (its §VI and Fig. 9 extensions), graph and tiered
// (host-side sweeps). -format json writes the trajectory of -exp graph
// or -exp tiered, in the shape of BENCH_06_graph.json and
// BENCH_10_tiered.json; every other experiment prints a table or CSV.
//
// Scale shrinks the synthetic datasets relative to the paper's 1M+
// vectors; results the paper reports at full scale are extrapolated
// (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ssam/internal/bench"
)

// experiment is one -exp id: its report, and for the sweeps with a
// committed trajectory file, the trajectory -format json writes.
type experiment struct {
	id   string
	run  func(bench.Options) (bench.Report, error)
	traj func(bench.Options) (any, error)
}

// experiments is every -exp id in the order -exp all runs them.
var experiments = []experiment{
	{id: "table1", run: func(o bench.Options) (bench.Report, error) { return bench.TableIReport(o), nil }},
	{id: "table2", run: func(bench.Options) (bench.Report, error) { return bench.TableIIReport(), nil }},
	{id: "table3", run: func(bench.Options) (bench.Report, error) { return bench.TableIIIReport(), nil }},
	{id: "table4", run: func(bench.Options) (bench.Report, error) { return bench.TableIVReport(), nil }},
	{id: "table5", run: bench.TableVReport},
	{id: "table6", run: bench.TableVIReport},
	{id: "fig2", run: func(o bench.Options) (bench.Report, error) { return bench.Figure2Report(o), nil }},
	{id: "fig6", run: bench.Figure6Report},
	{id: "fig7", run: bench.Figure7Report},
	{id: "pqueue", run: bench.PQAblationReport},
	{id: "fixed", run: func(o bench.Options) (bench.Report, error) { return bench.FixedPointReport(o), nil }},
	{id: "tco", run: bench.TCOReport},
	{id: "build", run: func(o bench.Options) (bench.Report, error) { return bench.IndexConstructionReport(o), nil }},
	{id: "offload", run: bench.KMeansOffloadReport},
	{id: "devbuild", run: bench.DeviceAssistedBuildReport},
	{id: "devindex", run: bench.DeviceIndexSweepReport},
	{id: "devlsh", run: bench.DeviceLSHSweepReport},
	{id: "devmix", run: bench.DeviceInstructionMixReport},
	{id: "energy", run: bench.EnergyPerQueryReport},
	{id: "cluster", run: bench.ClusterScalingReport},
	{id: "graph", run: bench.GraphSweepReport,
		traj: func(o bench.Options) (any, error) { return bench.GraphSweep(o) }},
	{id: "tiered", run: bench.TieredSweepReport,
		traj: func(o bench.Options) (any, error) { return bench.TieredSweep(o) }},
}

func main() {
	var ids, trajIDs []string
	for _, e := range experiments {
		ids = append(ids, e.id)
		if e.traj != nil {
			trajIDs = append(trajIDs, e.id)
		}
	}
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+", or all)")
	scale := flag.Float64("scale", 0.004, "dataset scale relative to the paper's sizes (0,1]")
	queries := flag.Int("queries", 10, "queries per measurement point")
	vlen := flag.Int("vlen", 8, "SSAM vector length (2, 4, 8, 16)")
	format := flag.String("format", "table", "output format: table, csv, or json ("+strings.Join(trajIDs, " and ")+" only)")
	flag.Parse()

	switch *format {
	case "table", "csv", "json":
	default:
		usage("-format %q not in {table, csv, json}", *format)
	}
	switch *vlen {
	case 2, 4, 8, 16:
	default:
		usage("-vlen %d not in {2, 4, 8, 16}", *vlen)
	}
	o := bench.Options{Scale: *scale, Queries: *queries, VectorLength: *vlen}

	run := experiments
	if *exp != "all" {
		run = nil
		for _, e := range experiments {
			if e.id == *exp {
				run = []experiment{e}
			}
		}
		if run == nil {
			usage("unknown experiment %q", *exp)
		}
	}

	if *format == "json" {
		if len(run) != 1 || run[0].traj == nil {
			usage("-format json is only supported for -exp %s", strings.Join(trajIDs, " and -exp "))
		}
		t, err := run[0].traj(o)
		if err == nil {
			err = bench.WriteTrajectory(os.Stdout, t)
		}
		if err != nil {
			fail(*exp, err)
		}
		return
	}

	for _, e := range run {
		r, err := e.run(o)
		if err != nil {
			fail(e.id, err)
		}
		if *format == "csv" {
			if err := r.WriteCSV(os.Stdout); err != nil {
				fail(e.id, err)
			}
		} else {
			r.Print(os.Stdout)
		}
		fmt.Println()
	}
}

// usage reports a bad command line and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ssam-bench: "+format+"\n", args...)
	os.Exit(2)
}

// fail reports an experiment's error and exits 1.
func fail(id string, err error) {
	fmt.Fprintf(os.Stderr, "ssam-bench: %s: %v\n", id, err)
	os.Exit(1)
}
