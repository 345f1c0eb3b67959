package bench

import (
	"fmt"
	"time"

	"ssam/internal/asm"
	"ssam/internal/dataset"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/knn"
	"ssam/internal/lsh"
	"ssam/internal/platform"
	"ssam/internal/power"
	"ssam/internal/sim"
	"ssam/internal/ssamdev"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// BuildRow compares one index's construction cost to its query cost
// (Section VI-B: "index construction is still three orders of
// magnitude slower than single query execution").
type BuildRow struct {
	Index        string
	BuildSeconds float64
	QuerySeconds float64
	Ratio        float64
}

// IndexConstruction measures host-side build time versus mean query
// time for each index on the GloVe workload.
func IndexConstruction(o Options) []BuildRow {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	qs := clampQueries(ds.Queries, o.Queries)
	k := ds.Spec.K

	measure := func(name string, build func() func([]float32)) BuildRow {
		start := time.Now()
		query := build()
		buildS := time.Since(start).Seconds()
		start = time.Now()
		for _, q := range qs {
			query(q)
		}
		queryS := time.Since(start).Seconds() / float64(len(qs))
		return BuildRow{Index: name, BuildSeconds: buildS, QuerySeconds: queryS, Ratio: buildS / queryS}
	}

	return []BuildRow{
		measure("kdtree", func() func([]float32) {
			f := kdtree.Build(ds.Data, ds.Dim(), kdtree.DefaultParams())
			f.Checks = 512
			return func(q []float32) { f.Search(q, k) }
		}),
		measure("kmeans", func() func([]float32) {
			tr := kmeans.Build(ds.Data, ds.Dim(), kmeans.DefaultParams())
			tr.Checks = 512
			return func(q []float32) { tr.Search(q, k) }
		}),
		measure("mplsh", func() func([]float32) {
			x := lsh.Build(ds.Data, ds.Dim(), lsh.DefaultParams())
			x.Probes = 8
			return func(q []float32) { x.Search(q, k) }
		}),
	}
}

// IndexConstructionReport formats IndexConstruction.
func IndexConstructionReport(o Options) Report {
	r := Report{
		Title:  "Section VI-B: index construction vs query cost, host CPU (paper: construction ~3 orders of magnitude slower than one query)",
		Header: []string{"Index", "Build (s)", "Query (s)", "Build/Query"},
	}
	for _, row := range IndexConstruction(o) {
		r.Rows = append(r.Rows, []string{row.Index, g3(row.BuildSeconds), g3(row.QuerySeconds), f1(row.Ratio) + "x"})
	}
	return r
}

// OffloadRow compares a k-means assignment pass on the CPU envelope
// versus the SSAM device.
type OffloadRow struct {
	K             int
	CPUSeconds    float64 // modeled CPU scan time per pass
	DeviceSeconds float64 // simulated device time per pass
	Speedup       float64
}

// KMeansOffload reproduces the Section VI-B construction offload: the
// data-intensive assignment scan of k-means training simulated on the
// device against the CPU roofline for the same pass (each pass streams
// the dataset once and scores it against K scratchpad-resident
// centroids).
func KMeansOffload(o Options) ([]OffloadRow, error) {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(o.VectorLength), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		return nil, err
	}
	cpu := platform.XeonE5()
	var rows []OffloadRow
	for _, k := range []int{4, 8, 16} {
		centroids := make([][]float32, k)
		for c := range centroids {
			centroids[c] = ds.Row(c * ds.N() / k)
		}
		_, st, err := dev.AssignCentroids(centroids)
		if err != nil {
			return nil, err
		}
		// CPU pass: stream the dataset once, compute K distances per
		// vector. Bandwidth-bound on the stream, compute-bound in K:
		// charge the larger of stream time and distance math at ~4
		// ops/dim on the six-core SIMD envelope (~100 GFLOP/s).
		bytes := float64(ds.N()) * float64(ds.Dim()) * 4
		streamT := bytes / (cpu.MemBandwidth * cpu.Efficiency)
		flops := float64(ds.N()) * float64(ds.Dim()) * float64(k) * 4
		computeT := flops / 100e9
		cpuT := streamT
		if computeT > cpuT {
			cpuT = computeT
		}
		rows = append(rows, OffloadRow{
			K:             k,
			CPUSeconds:    cpuT,
			DeviceSeconds: st.Seconds,
			Speedup:       cpuT / st.Seconds,
		})
	}
	return rows, nil
}

// KMeansOffloadReport formats KMeansOffload.
func KMeansOffloadReport(o Options) (Report, error) {
	rows, err := KMeansOffload(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Section VI-B: k-means assignment pass, CPU envelope vs SSAM device",
		Header: []string{"K", "CPU (s)", "SSAM (s)", "Speedup"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{itoa(row.K), g3(row.CPUSeconds), g3(row.DeviceSeconds), f1(row.Speedup) + "x"})
	}
	return r, nil
}

// DevBuildRow compares a standard kd-tree build against one whose cut
// dimensions come from the device variance scan (Section VI-B).
type DevBuildRow struct {
	Build         string
	BuildSeconds  float64 // host build time
	DeviceSeconds float64 // device variance-scan time (assisted build)
	Recall        float64 // at a fixed checks budget
}

// DeviceAssistedBuild reproduces the kd-tree construction offload: the
// SSAM scans the dataset for per-dimension variance, the host builds
// the forest from the precomputed top-variance dimensions, skipping
// every per-node variance pass.
func DeviceAssistedBuild(o Options) ([]DevBuildRow, error) {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	qs := clampQueries(ds.Queries, o.Queries)
	k := ds.Spec.K
	gt := knn.GroundTruth(ds.Data, ds.Dim(), qs, k)

	evalRecall := func(f *kdtree.Forest) float64 {
		f.Checks = 512
		var r float64
		for i, q := range qs {
			r += dataset.Recall(gt[i], f.Search(q, k))
		}
		return r / float64(len(qs))
	}

	start := time.Now()
	std := kdtree.Build(ds.Data, ds.Dim(), kdtree.DefaultParams())
	stdBuild := time.Since(start).Seconds()

	dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(o.VectorLength), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		return nil, err
	}
	top, st, err := dev.TopVarianceDims(10)
	if err != nil {
		return nil, err
	}
	p := kdtree.DefaultParams()
	p.GlobalCutDims = top
	start = time.Now()
	assisted := kdtree.Build(ds.Data, ds.Dim(), p)
	assistedBuild := time.Since(start).Seconds()

	return []DevBuildRow{
		{Build: "host-variance", BuildSeconds: stdBuild, Recall: evalRecall(std)},
		{Build: "device-assisted", BuildSeconds: assistedBuild, DeviceSeconds: st.Seconds, Recall: evalRecall(assisted)},
	}, nil
}

// DeviceAssistedBuildReport formats DeviceAssistedBuild.
func DeviceAssistedBuildReport(o Options) (Report, error) {
	rows, err := DeviceAssistedBuild(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Section VI-B: kd-tree build, host variance passes vs device variance scan",
		Header: []string{"Build", "Host build (s)", "Device scan (s)", "Recall@512"},
	}
	for _, row := range rows {
		devS := "-"
		if row.DeviceSeconds > 0 {
			devS = g3(row.DeviceSeconds)
		}
		r.Rows = append(r.Rows, []string{row.Build, g3(row.BuildSeconds), devS, f3(row.Recall)})
	}
	return r, nil
}

// DevIndexRow is one point of the fully simulated on-device index
// sweep.
type DevIndexRow struct {
	Dataset     string
	Index       string // "kdtree" or "kmtree"
	ChecksPerPU int
	Recall      float64
	DeviceQPS   float64 // simulated
	LinearQPS   float64 // simulated device linear scan, for reference
}

// DeviceIndexSweep runs the scratchpad-resident kd-tree and
// hierarchical k-means tree (traversal on the scalar unit and hardware
// stack, centroid evaluation and leaf scans on the vector unit) across
// per-PU check budgets — the fully simulated counterpart of the Fig. 7
// model, on the GloVe and GIST workloads.
func DeviceIndexSweep(o Options) ([]DevIndexRow, error) {
	o = o.Defaults()
	var rows []DevIndexRow
	for _, spec := range []dataset.Spec{dataset.GloVeSpec(o.Scale), dataset.GISTSpec(o.Scale)} {
		ds := getDataset(spec)
		qs := clampQueries(ds.Queries, o.Queries)
		k := spec.K
		gt := knn.GroundTruth(ds.Data, ds.Dim(), qs, k)
		dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(o.VectorLength), ds.Data, ds.Dim(), vec.Euclidean)
		if err != nil {
			return nil, err
		}
		var linSecs float64
		for _, q := range qs {
			_, st, err := dev.Search(q, k)
			if err != nil {
				return nil, err
			}
			linSecs += st.Seconds
		}
		linQPS := float64(len(qs)) / linSecs

		kd, err := dev.BuildKDTreeIndex(8)
		if err != nil {
			return nil, err
		}
		km, err := dev.BuildKMTreeIndex(4, 8, 3)
		if err != nil {
			return nil, err
		}
		indexes := []struct {
			name   string
			search func(q []float32, k, checks int) ([]topk.Result, ssamdev.QueryStats, error)
		}{
			{"kdtree", kd.Search},
			{"kmtree", km.Search},
		}
		for _, idx := range indexes {
			for _, checks := range []int{2, 8, 32, 128} {
				var recall, secs float64
				for i, q := range qs {
					res, st, err := idx.search(q, k, checks)
					if err != nil {
						return nil, err
					}
					recall += dataset.Recall(gt[i], res)
					secs += st.Seconds
				}
				rows = append(rows, DevIndexRow{
					Dataset:     spec.Name,
					Index:       idx.name,
					ChecksPerPU: checks,
					Recall:      recall / float64(len(qs)),
					DeviceQPS:   float64(len(qs)) / secs,
					LinearQPS:   linQPS,
				})
			}
		}
	}
	return rows, nil
}

// DeviceIndexSweepReport formats DeviceIndexSweep.
func DeviceIndexSweepReport(o Options) (Report, error) {
	rows, err := DeviceIndexSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "On-device indexes (scratchpad tree + hardware stack): accuracy vs simulated throughput",
		Header: []string{"Dataset", "Index", "Checks/PU", "Recall", "Device q/s", "Device linear q/s"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{
			row.Dataset, row.Index, itoa(row.ChecksPerPU), f3(row.Recall),
			f1(row.DeviceQPS), f1(row.LinearQPS),
		})
	}
	return r, nil
}

// DevLSHRow is one point of the on-device hyperplane-LSH sweep.
type DevLSHRow struct {
	Bits      int
	Tables    int
	Recall    float64
	DeviceQPS float64
	LinearQPS float64
}

// DeviceLSHSweep runs the on-device single-probe hyperplane LSH
// (hash-function weights in SSAM memory per Section III-D) across hash
// widths on the GloVe workload.
func DeviceLSHSweep(o Options) ([]DevLSHRow, error) {
	o = o.Defaults()
	spec := dataset.GloVeSpec(o.Scale)
	ds := getDataset(spec)
	qs := clampQueries(ds.Queries, o.Queries)
	k := spec.K
	gt := knn.GroundTruth(ds.Data, ds.Dim(), qs, k)
	dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(o.VectorLength), ds.Data, ds.Dim(), vec.Euclidean)
	if err != nil {
		return nil, err
	}
	var linSecs float64
	for _, q := range qs {
		_, st, err := dev.Search(q, k)
		if err != nil {
			return nil, err
		}
		linSecs += st.Seconds
	}
	linQPS := float64(len(qs)) / linSecs

	const tables = 4
	var rows []DevLSHRow
	for _, bits := range []int{2, 4, 6, 8} {
		x, err := dev.BuildLSHIndex(tables, bits, 5)
		if err != nil {
			return nil, err
		}
		var recall, secs float64
		for i, q := range qs {
			res, st, err := x.Search(q, k)
			if err != nil {
				return nil, err
			}
			recall += dataset.Recall(gt[i], res)
			secs += st.Seconds
		}
		rows = append(rows, DevLSHRow{
			Bits: bits, Tables: tables,
			Recall:    recall / float64(len(qs)),
			DeviceQPS: float64(len(qs)) / secs,
			LinearQPS: linQPS,
		})
	}
	return rows, nil
}

// DeviceLSHSweepReport formats DeviceLSHSweep.
func DeviceLSHSweepReport(o Options) (Report, error) {
	rows, err := DeviceLSHSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "On-device hyperplane LSH (weights in SSAM memory): hash width vs accuracy and throughput, GloVe workload",
		Header: []string{"Tables", "Bits", "Recall", "Device q/s", "Device linear q/s"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{
			itoa(row.Tables), itoa(row.Bits), f3(row.Recall),
			f1(row.DeviceQPS), f1(row.LinearQPS),
		})
	}
	return r, nil
}

// DevMixRow is one kernel's device-side instruction mix.
type DevMixRow struct {
	Kernel    string
	VectorPct float64
	ReadPct   float64
	CyclesVec float64 // cycles per database vector
}

// DeviceInstructionMix measures the retired-instruction mix of each
// generated kernel on one processing unit over a GloVe-shaped shard —
// the simulator-native counterpart of Table I, showing how thoroughly
// the codesigned kernels vectorize.
func DeviceInstructionMix(o Options) ([]DevMixRow, error) {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	dims := ds.Dim()
	vlen := o.VectorLength
	n := 256
	if n > ds.N() {
		n = ds.N()
	}
	shift := sim.DeviceShift(dims)
	padded := sim.PadDims(dims, vlen)

	fixed := make([]int32, n*padded)
	for i := 0; i < n; i++ {
		copy(fixed[i*padded:], sim.QuantizeDevice(ds.Row(i), shift))
	}
	query := make([]int32, padded)
	copy(query, sim.QuantizeDevice(ds.Queries[0], shift))

	words := sim.HammingWords(dims)
	hpadded := sim.PadDims(words, vlen)
	codes := ds.ToBinary()
	hdram := make([]int32, n*hpadded)
	hquery := make([]int32, hpadded)
	for i := 0; i < n; i++ {
		for w := 0; w < words; w++ {
			word := codes[i].Words[w/2]
			if w%2 == 1 {
				word >>= 32
			}
			hdram[i*hpadded+w] = int32(uint32(word))
		}
	}
	qcode := vec.SignBinarize(ds.Queries[0], ds.Means())
	for w := 0; w < words; w++ {
		word := qcode.Words[w/2]
		if w%2 == 1 {
			word >>= 32
		}
		hquery[w] = int32(uint32(word))
	}

	kernels := []struct {
		name  string
		src   string
		dram  []int32
		query []int32
	}{
		{"euclidean", sim.EuclideanKernel(dims, n, vlen), fixed, query},
		{"manhattan", sim.ManhattanKernel(dims, n, vlen), fixed, query},
		{"cosine", sim.CosineKernel(dims, n, vlen), fixed, query},
		{"hamming", sim.HammingKernel(words, n, vlen), hdram, hquery},
	}
	var rows []DevMixRow
	for _, kn := range kernels {
		prog, err := asm.Assemble(kn.src)
		if err != nil {
			return nil, err
		}
		pu := sim.New(sim.DefaultConfig(vlen), kn.dram)
		if err := pu.WriteScratch(0, kn.query); err != nil {
			return nil, err
		}
		if err := pu.Run(prog); err != nil {
			return nil, err
		}
		st := pu.Stats()
		rows = append(rows, DevMixRow{
			Kernel:    kn.name,
			VectorPct: st.VectorPct(),
			ReadPct:   st.MemoryReadPct(),
			CyclesVec: float64(st.Cycles) / float64(n),
		})
	}
	return rows, nil
}

// DeviceInstructionMixReport formats DeviceInstructionMix.
func DeviceInstructionMixReport(o Options) (Report, error) {
	rows, err := DeviceInstructionMix(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Device-side instruction mix per kernel (one PU, GloVe shard)",
		Header: []string{"Kernel", "Vector%", "MemRead%", "Cycles/vector"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{row.Kernel, f2(row.VectorPct), f2(row.ReadPct), f1(row.CyclesVec)})
	}
	return r, nil
}

// EnergyRow is one design point of the activity-factor energy study.
type EnergyRow struct {
	VectorLength int
	QueryEnergyJ float64
	AvgPowerW    float64
	Utilization  float64
}

// EnergyPerQuery runs the activity-factor energy model (the paper's
// trace-driven PrimeTime methodology) over simulated linear-scan
// queries on the GloVe workload for each design point.
func EnergyPerQuery(o Options) ([]EnergyRow, error) {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	qs := clampQueries(ds.Queries, o.Queries)
	var rows []EnergyRow
	for _, vlen := range power.SupportedVectorLengths() {
		dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(vlen), ds.Data, ds.Dim(), vec.Euclidean)
		if err != nil {
			return nil, err
		}
		model, err := power.NewEnergyModel(vlen, dev.TotalPUs(), 1e9)
		if err != nil {
			return nil, err
		}
		var energy, watts, util float64
		for _, q := range qs {
			_, st, err := dev.Search(q, ds.Spec.K)
			if err != nil {
				return nil, err
			}
			a := power.Activity{
				Seconds:      st.Seconds,
				Cycles:       st.Cycles,
				Instructions: st.Instructions,
				VectorInsts:  st.VectorInsts,
				DRAMBytes:    st.DRAMBytesRead,
				PQInserts:    st.PQInserts,
				PUs:          st.PUs,
			}
			energy += model.Energy(a)
			watts += model.AveragePower(a)
			util += a.Utilization()
		}
		n := float64(len(qs))
		rows = append(rows, EnergyRow{
			VectorLength: vlen,
			QueryEnergyJ: energy / n,
			AvgPowerW:    watts / n,
			Utilization:  util / n,
		})
	}
	return rows, nil
}

// EnergyPerQueryReport formats EnergyPerQuery.
func EnergyPerQueryReport(o Options) (Report, error) {
	rows, err := EnergyPerQuery(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Activity-factor energy model: per-query energy, linear Euclidean scan, GloVe workload",
		Header: []string{"Design", "Energy/query (J)", "Avg power (W)", "Issue utilization"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("SSAM-%d", row.VectorLength),
			g3(row.QueryEnergyJ), f2(row.AvgPowerW), f2(row.Utilization),
		})
	}
	return r, nil
}

// ClusterRow is one module-count scaling point.
type ClusterRow struct {
	Modules int
	QPS     float64
	PUs     int
}

// ClusterScaling shows multi-module composition: the same dataset
// sharded over 1, 2 and 4 SSAM modules, with host-side reduction over
// the external links.
func ClusterScaling(o Options) ([]ClusterRow, error) {
	o = o.Defaults()
	ds := getDataset(dataset.GloVeSpec(o.Scale))
	qs := clampQueries(ds.Queries, o.Queries)
	var rows []ClusterRow
	for _, modules := range []int{1, 2, 4} {
		cl, err := ssamdev.NewFloatCluster(ssamdev.DefaultConfig(o.VectorLength), ds.Data, ds.Dim(), vec.Euclidean, modules)
		if err != nil {
			return nil, err
		}
		var secs float64
		var pus int
		for _, q := range qs {
			_, st, err := cl.Search(q, ds.Spec.K)
			if err != nil {
				return nil, err
			}
			secs += st.Seconds
			pus = st.PUs
		}
		rows = append(rows, ClusterRow{Modules: cl.Modules(), QPS: float64(len(qs)) / secs, PUs: pus})
	}
	return rows, nil
}

// ClusterScalingReport formats ClusterScaling.
func ClusterScalingReport(o Options) (Report, error) {
	rows, err := ClusterScaling(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Multi-module composition: one dataset sharded across SSAM modules",
		Header: []string{"Modules", "q/s", "total PUs"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{itoa(row.Modules), f1(row.QPS), itoa(row.PUs)})
	}
	return r, nil
}
