package bench

import (
	"fmt"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/knn"
	"ssam/internal/lsh"
	"ssam/internal/platform"
	"ssam/internal/power"
	"ssam/internal/ssamdev"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// CurvePoint is one point of a throughput-versus-accuracy curve.
type CurvePoint struct {
	Dataset   string
	Algorithm string
	Knob      int     // checks (trees) or probes (LSH); 0 for linear
	Recall    float64 // the paper's accuracy metric
	QPS       float64 // host-measured queries/second
	SSAMQPS   float64 // modeled SSAM queries/second (Figure 7 only)
}

// figure2Knobs are the sweep points for the accuracy/throughput curves.
var figure2Knobs = []int{32, 64, 128, 256, 512, 1024, 2048}

var figure2Probes = []int{1, 2, 4, 8, 16, 32, 64, 128}

// Figure2 reproduces the approximate-kNN characterization: throughput
// versus accuracy for kd-tree, hierarchical k-means and HP-MPLSH
// against exact linear search, single-threaded on the host CPU (the
// paper's Fig. 2 methodology).
func Figure2(o Options) []CurvePoint {
	pts, _ := figureCurves(o, false)
	return pts
}

// Figure7 reproduces the SSAM-versus-CPU indexed-search comparison:
// the same sweeps, with each point also converted to modeled SSAM
// throughput from the measured index work (Section V-C / Fig. 7).
func Figure7(o Options) ([]CurvePoint, error) {
	return figureCurves(o, true)
}

func figureCurves(o Options, withSSAM bool) ([]CurvePoint, error) {
	o = o.Defaults()
	var out []CurvePoint
	for _, spec := range dataset.AllSpecs(o.Scale) {
		ds := getDataset(spec)
		k := spec.K
		qs := clampQueries(ds.Queries, o.Queries)
		gt := knn.GroundTruth(ds.Data, ds.Dim(), qs, k)

		var dev *ssamdev.Device
		if withSSAM {
			var err error
			dev, err = ssamdev.NewFloat(ssamdev.DefaultConfig(o.VectorLength), ds.Data, ds.Dim(), vec.Euclidean)
			if err != nil {
				return nil, err
			}
		}

		// Exact linear baseline (single-threaded, as in the paper).
		lin := knn.NewEngine(ds.Data, ds.Dim(), vec.Euclidean, 1)
		linQPS := measureQPS(qs, func(q []float32) { lin.Search(q, k) })
		p := CurvePoint{Dataset: spec.Name, Algorithm: "linear", Recall: 1, QPS: linQPS}
		if withSSAM {
			secs := 0.0
			for _, q := range qs {
				_, st, err := dev.Search(q, k)
				if err != nil {
					return nil, err
				}
				secs += st.Seconds
			}
			p.SSAMQPS = float64(len(qs)) / secs
		}
		out = append(out, p)

		forest := kdtree.Build(ds.Data, ds.Dim(), kdtree.DefaultParams())
		tree := kmeans.Build(ds.Data, ds.Dim(), kmeans.DefaultParams())
		index := lsh.Build(ds.Data, ds.Dim(), lsh.DefaultParams())

		for _, checks := range figure2Knobs {
			if checks > ds.N() {
				continue
			}
			forest.Checks = checks
			out = append(out, measureCurvePoint(spec.Name, "kdtree", checks, qs, gt, dev, k, forest.SearchStats))
			tree.Checks = checks
			out = append(out, measureCurvePoint(spec.Name, "kmeans", checks, qs, gt, dev, k, tree.SearchStats))
		}
		for _, probes := range figure2Probes {
			index.Probes = probes
			out = append(out, measureCurvePoint(spec.Name, "mplsh", probes, qs, gt, dev, k, index.SearchStats))
		}
	}
	return out, nil
}

// measureQPS times fn over the query set with a warmup pass and a
// minimum measurement window, repeating the whole set as needed so a
// single fast sweep does not produce noise-dominated figures.
func measureQPS(qs [][]float32, fn func(q []float32)) float64 {
	for _, q := range qs { // warmup
		fn(q)
	}
	const minWindow = 30 * time.Millisecond
	queries := 0
	start := time.Now()
	for time.Since(start) < minWindow {
		for _, q := range qs {
			fn(q)
		}
		queries += len(qs)
	}
	return float64(queries) / time.Since(start).Seconds()
}

func measureCurvePoint(dsName, algo string, knob int, qs [][]float32,
	gt [][]topk.Result, dev *ssamdev.Device, k int,
	search func(q []float32, k int) ([]topk.Result, knn.Stats)) CurvePoint {

	var recall float64
	var ssamSecs float64
	for i, q := range qs {
		res, work := search(q, k)
		recall += dataset.Recall(gt[i], res)
		if dev != nil {
			ssamSecs += dev.ApproxQuerySeconds(work)
		}
	}
	pt := CurvePoint{
		Dataset:   dsName,
		Algorithm: algo,
		Knob:      knob,
		Recall:    recall / float64(len(qs)),
		QPS:       measureQPS(qs, func(q []float32) { search(q, k) }),
	}
	if dev != nil && ssamSecs > 0 {
		pt.SSAMQPS = float64(len(qs)) / ssamSecs
	}
	return pt
}

// Figure2Report formats the curves.
func Figure2Report(o Options) Report {
	r := Report{
		Title:  "Figure 2: throughput vs accuracy, approximate kNN on host CPU (single-threaded)",
		Header: []string{"Dataset", "Algorithm", "Knob", "Recall", "QPS"},
		Notes:  []string{"paper shape: up to ~170x over linear at 50% accuracy, ~13x at 90%, converging to linear past 95-99%"},
	}
	for _, p := range Figure2(o) {
		r.Rows = append(r.Rows, []string{p.Dataset, p.Algorithm, itoa(p.Knob), f3(p.Recall), f1(p.QPS)})
	}
	return r
}

// Figure7Report formats the SSAM-vs-CPU indexed comparison,
// area-normalized as in the paper.
func Figure7Report(o Options) (Report, error) {
	o = o.Defaults()
	pts, err := Figure7(o)
	if err != nil {
		return Report{}, err
	}
	cpuArea := platform.XeonE5().AreaMM2
	ssamArea, err := power.AcceleratorArea(o.VectorLength)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  fmt.Sprintf("Figure 7: area-normalized throughput vs accuracy, CPU vs SSAM-%d", o.VectorLength),
		Header: []string{"Dataset", "Algorithm", "Knob", "Recall", "CPU q/s/mm2", "SSAM q/s/mm2", "SSAM/CPU"},
		Notes:  []string{"paper shape: ~2 orders of magnitude at the 50% accuracy target"},
	}
	for _, p := range pts {
		cpuNorm := p.QPS / cpuArea
		ssamNorm := p.SSAMQPS / ssamArea.Total()
		ratio := 0.0
		if cpuNorm > 0 {
			ratio = ssamNorm / cpuNorm
		}
		r.Rows = append(r.Rows, []string{
			p.Dataset, p.Algorithm, itoa(p.Knob), f3(p.Recall),
			g3(cpuNorm), g3(ssamNorm), f1(ratio) + "x",
		})
	}
	return r, nil
}

// Fig6Row is one platform/dataset cell of Figure 6.
type Fig6Row struct {
	Platform    string
	Dataset     string
	QPS         float64 // full-scale queries/s
	AreaNormQPS float64 // Fig. 6a
	QPerJoule   float64 // Fig. 6b
}

// Figure6 reproduces the exact-linear-search cross-platform
// comparison: CPU/GPU/FPGA from their roofline envelopes at full
// dataset scale; SSAM-2/4/8/16 from simulated kernels extrapolated to
// full scale, normalized by the Table III/IV power and area.
func Figure6(o Options) ([]Fig6Row, error) {
	o = o.Defaults()
	var rows []Fig6Row
	for _, spec := range dataset.AllSpecs(o.Scale) {
		full := paperN(spec.Name)
		for _, p := range platform.All() {
			rows = append(rows, Fig6Row{
				Platform:    p.Name,
				Dataset:     spec.Name,
				QPS:         p.LinearQPS(full, spec.Dim),
				AreaNormQPS: p.AreaNormQPS(full, spec.Dim),
				QPerJoule:   p.QueriesPerJoule(full, spec.Dim),
			})
		}
		ds := getDataset(spec)
		qs := clampQueries(ds.Queries, o.Queries)
		for _, vlen := range power.SupportedVectorLengths() {
			dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(vlen), ds.Data, ds.Dim(), vec.Euclidean)
			if err != nil {
				return nil, err
			}
			var secs float64
			for _, q := range qs {
				_, st, err := dev.Search(q, spec.K)
				if err != nil {
					return nil, err
				}
				secs += st.Seconds
			}
			qps := extrapolateQPS(float64(len(qs))/secs, ds.N(), full)
			area, err := power.AcceleratorArea(vlen)
			if err != nil {
				return nil, err
			}
			pw, err := power.AcceleratorPower(vlen)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig6Row{
				Platform:    fmt.Sprintf("ssam-%d", vlen),
				Dataset:     spec.Name,
				QPS:         qps,
				AreaNormQPS: qps / area.Total(),
				QPerJoule:   qps / pw.Total(),
			})
		}
	}
	return rows, nil
}

// Figure6Report formats both panels of Figure 6.
func Figure6Report(o Options) (Report, error) {
	rows, err := Figure6(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title:  "Figure 6: exact linear search, full-scale (a) area-normalized throughput and (b) energy efficiency",
		Header: []string{"Platform", "Dataset", "q/s", "q/s/mm2 (6a)", "q/J (6b)"},
		Notes:  []string{"paper shape: SSAM up to 426x area-normalized throughput and 934x energy efficiency over the CPU; GPU and FPGA in between"},
	}
	for _, row := range rows {
		r.Rows = append(r.Rows, []string{row.Platform, row.Dataset, g3(row.QPS), g3(row.AreaNormQPS), g3(row.QPerJoule)})
	}
	return r, nil
}
