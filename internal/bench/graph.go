package bench

// Recall-vs-QPS frontier for the graph-traversal engine: sweep the
// HNSW efSearch beam against the paper's three approximate indexes on
// a modern embedding shape (128-d GIST-like vectors), the experiment
// behind the committed BENCH_06_graph.json. Wall-clock rates depend on
// the machine, so the trajectory records GOMAXPROCS and NumCPU.

import (
	"fmt"
	"runtime"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/graph"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/knn"
	"ssam/internal/lsh"
	"ssam/internal/vec"
)

// graphEfs is the efSearch sweep — the graph's accuracy/throughput
// knob, the analogue of figure2Knobs.
var graphEfs = []int{10, 16, 32, 64, 128, 256}

// GIST128N is the full-scale row count of the gist128 workload.
const GIST128N = 1000000

// GIST128Spec returns a GIST-like workload at modern embedding width:
// 128-d descriptors, k=10, same mixture shape as GISTSpec. The graph
// experiment uses it because 960-d build times would dwarf the sweep.
func GIST128Spec(scale float64) dataset.Spec {
	n := int(float64(GIST128N) * scale)
	if n < 64 {
		n = 64
	}
	return dataset.Spec{
		Name: "gist128", N: n, Dim: 128,
		NumQueries: 1000, K: 10, Clusters: 96, ClusterStd: 0.30,
		Seed: 0x6128,
	}
}

// GraphRow is one (algorithm, knob) point of the frontier. Knob is
// efSearch for the graph, checks for the trees, probes for LSH, 0 for
// the exact baseline.
type GraphRow struct {
	Algorithm    string  `json:"algorithm"`
	Knob         int     `json:"knob"`
	Recall       float64 `json:"recall"`
	QPS          float64 `json:"qps"`
	DistEvals    float64 `json:"dist_evals"`    // mean per query (0 where the engine does not report it)
	BuildSeconds float64 `json:"build_seconds"` // index construction, once per algorithm
}

// GraphTrajectory is the JSON shape committed as BENCH_06_graph.json.
type GraphTrajectory struct {
	Experiment string `json:"experiment"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU records the machine's logical CPU count alongside
	// GOMAXPROCS (they differ under CPU quotas), absent from
	// trajectories recorded before it was added.
	NumCPU  int        `json:"numcpu,omitempty"`
	Scale   float64    `json:"scale"`
	Queries int        `json:"queries"`
	Dataset string     `json:"dataset"`
	N       int        `json:"n"`
	Dim     int        `json:"dim"`
	K       int        `json:"k"`
	Rows    []GraphRow `json:"rows"`
}

// BestAtRecall returns each algorithm's highest QPS among rows with
// recall >= floor (the frontier comparison the acceptance bar is
// stated in). Algorithms that never reach the floor are absent.
func (t GraphTrajectory) BestAtRecall(floor float64) map[string]float64 {
	best := make(map[string]float64)
	for _, r := range t.Rows {
		if r.Recall >= floor && r.QPS > best[r.Algorithm] {
			best[r.Algorithm] = r.QPS
		}
	}
	return best
}

// GraphSweep measures the recall@k/QPS frontier of the graph engine
// against kd-tree, hierarchical k-means, MPLSH, and the exact linear
// baseline, single-threaded on the host (the Fig. 2 methodology), on
// the gist128 workload.
func GraphSweep(o Options) (GraphTrajectory, error) {
	o = o.Defaults()
	spec := GIST128Spec(o.Scale)
	ds := getDataset(spec)
	k := spec.K
	qs := clampQueries(ds.Queries, o.Queries)
	if len(qs) == 0 {
		return GraphTrajectory{}, fmt.Errorf("bench: no queries for %s at scale %v", spec.Name, o.Scale)
	}
	out := GraphTrajectory{
		Experiment: "graph",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      o.Scale,
		Queries:    len(qs),
		Dataset:    spec.Name,
		N:          ds.N(),
		Dim:        ds.Dim(),
		K:          k,
	}
	gt := knn.GroundTruth(ds.Data, ds.Dim(), qs, k)

	// Exact baseline.
	lin := knn.NewEngine(ds.Data, ds.Dim(), vec.Euclidean, 1)
	out.Rows = append(out.Rows, GraphRow{
		Algorithm: "linear", Recall: 1,
		QPS:       measureQPS(qs, func(q []float32) { lin.Search(q, k) }),
		DistEvals: float64(ds.N()),
	})

	// Graph: one build, then sweep the beam.
	start := time.Now()
	g := graph.Build(ds.Data, ds.Dim(), graph.DefaultParams())
	gBuild := time.Since(start).Seconds()
	for _, ef := range graphEfs {
		var recall, evals float64
		for i, q := range qs {
			res, st := g.SearchEfStats(q, k, ef)
			recall += dataset.Recall(gt[i], res)
			evals += float64(st.DistEvals)
		}
		out.Rows = append(out.Rows, GraphRow{
			Algorithm:    "graph",
			Knob:         ef,
			Recall:       recall / float64(len(qs)),
			QPS:          measureQPS(qs, func(q []float32) { g.SearchEf(q, k, ef) }),
			DistEvals:    evals / float64(len(qs)),
			BuildSeconds: gBuild,
		})
	}

	// The paper's three approximate indexes over their Fig. 2 sweeps.
	start = time.Now()
	forest := kdtree.Build(ds.Data, ds.Dim(), kdtree.DefaultParams())
	forestBuild := time.Since(start).Seconds()
	start = time.Now()
	tree := kmeans.Build(ds.Data, ds.Dim(), kmeans.DefaultParams())
	treeBuild := time.Since(start).Seconds()
	start = time.Now()
	index := lsh.Build(ds.Data, ds.Dim(), lsh.DefaultParams())
	lshBuild := time.Since(start).Seconds()

	for _, checks := range figure2Knobs {
		if checks > ds.N() {
			continue
		}
		forest.Checks = checks
		var recall, evals float64
		for i, q := range qs {
			res, st := forest.SearchStats(q, k)
			recall += dataset.Recall(gt[i], res)
			evals += float64(st.DistEvals)
		}
		out.Rows = append(out.Rows, GraphRow{
			Algorithm:    "kdtree",
			Knob:         checks,
			Recall:       recall / float64(len(qs)),
			QPS:          measureQPS(qs, func(q []float32) { forest.Search(q, k) }),
			DistEvals:    evals / float64(len(qs)),
			BuildSeconds: forestBuild,
		})

		tree.Checks = checks
		recall, evals = 0, 0
		for i, q := range qs {
			res, st := tree.SearchStats(q, k)
			recall += dataset.Recall(gt[i], res)
			evals += float64(st.DistEvals)
		}
		out.Rows = append(out.Rows, GraphRow{
			Algorithm:    "kmeans",
			Knob:         checks,
			Recall:       recall / float64(len(qs)),
			QPS:          measureQPS(qs, func(q []float32) { tree.Search(q, k) }),
			DistEvals:    evals / float64(len(qs)),
			BuildSeconds: treeBuild,
		})
	}
	for _, probes := range figure2Probes {
		index.Probes = probes
		var recall, evals float64
		for i, q := range qs {
			res, st := index.SearchStats(q, k)
			recall += dataset.Recall(gt[i], res)
			evals += float64(st.DistEvals)
		}
		out.Rows = append(out.Rows, GraphRow{
			Algorithm:    "mplsh",
			Knob:         probes,
			Recall:       recall / float64(len(qs)),
			QPS:          measureQPS(qs, func(q []float32) { index.Search(q, k) }),
			DistEvals:    evals / float64(len(qs)),
			BuildSeconds: lshBuild,
		})
	}
	return out, nil
}

// GraphSweepReport formats GraphSweep, with the recall@0.9 frontier
// comparison in the notes.
func GraphSweepReport(o Options) (Report, error) {
	t, err := GraphSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title: fmt.Sprintf("Graph-traversal frontier: recall@%d vs. QPS on %s (%d x %dd)",
			t.K, t.Dataset, t.N, t.Dim),
		Header: []string{"Algorithm", "knob", "recall", "q/s", "dist evals", "build s"},
		Notes: []string{
			fmt.Sprintf("wall-clock on this machine, GOMAXPROCS=%d, single-threaded queries", t.GOMAXPROCS),
			"knob is efSearch (graph), checks (trees), probes (mplsh)",
		},
	}
	for _, row := range t.Rows {
		r.Rows = append(r.Rows, []string{
			row.Algorithm, itoa(row.Knob), f3(row.Recall), f1(row.QPS),
			f1(row.DistEvals), f2(row.BuildSeconds),
		})
	}
	best := t.BestAtRecall(0.9)
	for _, algo := range []string{"graph", "kdtree", "kmeans", "mplsh", "linear"} {
		if qps, ok := best[algo]; ok {
			r.Notes = append(r.Notes, fmt.Sprintf("best q/s at recall>=0.9: %s %.1f", algo, qps))
		} else {
			r.Notes = append(r.Notes, fmt.Sprintf("best q/s at recall>=0.9: %s never reaches 0.9", algo))
		}
	}
	return r, nil
}
