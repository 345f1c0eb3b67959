package bench

// Out-of-core throughput: the experiment behind the committed
// BENCH_10_tiered.json. The dataset lives in a tier-store backing file
// and the memory budget sweeps from a twentieth of the dataset up to
// fully cached, so the curve charts what a shrinking cache costs: at
// small fractions every query streams most vault pages back off
// storage, at 1.0 the store behaves like the in-RAM scan plus a page
// lookup. Each point also re-checks the bit-exactness contract against
// the in-RAM serial engine — the sweep refuses to report a QPS for
// answers that drifted. Wall-clock rates depend on the machine, so the
// trajectory records GOMAXPROCS and NumCPU.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"ssam/internal/knn"
	"ssam/internal/tier"
	"ssam/internal/vec"
)

// tieredFractions is the cache-budget sweep, as a fraction of the
// dataset's bytes. 0.25 and below put the dataset at >= 4x the budget
// (the genuinely out-of-core regime); 1.0 is the fully-cached ceiling.
var tieredFractions = []float64{0.05, 0.10, 0.25, 0.50, 1.0}

// tieredVaults fixes the store's page count so the sweep's page
// geometry does not depend on the machine's core count: 32 pages means
// the smallest budget still holds one resident page instead of
// degenerating to pure streaming.
const tieredVaults = 32

// TieredSweepRow is one budget point of the sweep.
type TieredSweepRow struct {
	Fraction     float64 `json:"fraction"`     // budget / dataset bytes
	BudgetBytes  int64   `json:"budget_bytes"` // resident page-cache bound
	QPS          float64 `json:"qps"`
	Slowdown     float64 `json:"slowdown"`       // in-RAM serial QPS / tiered QPS
	BytesRead    uint64  `json:"bytes_read"`     // backing-file traffic during the timed window
	CacheHitRate float64 `json:"cache_hit_rate"` // hits / (hits + misses) over the window
	Evictions    uint64  `json:"evictions"`
	PrefetchHits uint64  `json:"prefetch_hits"`
	Exact        bool    `json:"exact"` // results bit-identical to the in-RAM engine
}

// TieredTrajectory is the JSON shape committed as BENCH_10_tiered.json.
type TieredTrajectory struct {
	Experiment string `json:"experiment"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU records the machine's logical CPU count alongside
	// GOMAXPROCS (they differ under CPU quotas).
	NumCPU       int              `json:"numcpu"`
	Scale        float64          `json:"scale"`
	Queries      int              `json:"queries"`
	Dataset      string           `json:"dataset"`
	N            int              `json:"n"`
	Dim          int              `json:"dim"`
	K            int              `json:"k"`
	Vaults       int              `json:"vaults"`
	DatasetBytes int64            `json:"dataset_bytes"` // n*dim*4, what a full cache holds
	LinearQPS    float64          `json:"linear_qps"`    // in-RAM serial float32 baseline
	Rows         []TieredSweepRow `json:"rows"`
}

// FullyCachedSlowdown returns the slowdown of the fraction-1.0 row (the
// acceptance bar: fully cached within 1.2x of in-RAM), or 0 if the
// sweep lacks one.
func (t TieredTrajectory) FullyCachedSlowdown() float64 {
	for _, r := range t.Rows {
		if r.Fraction == 1.0 {
			return r.Slowdown
		}
	}
	return 0
}

// TieredSweep measures single-query host throughput of the out-of-core
// exact scan against the in-RAM serial float32 scan on the gist128
// workload, sweeping the cache budget. One backing file serves every
// budget point (the store is reopened per point so each starts cold),
// and every point verifies the bit-exactness contract on the query set
// before its timed window.
func TieredSweep(o Options) (TieredTrajectory, error) {
	o = o.Defaults()
	spec := GIST128Spec(o.Scale)
	ds := getDataset(spec)
	k := spec.K
	qs := clampQueries(ds.Queries, o.Queries)
	if len(qs) == 0 {
		return TieredTrajectory{}, fmt.Errorf("bench: no queries for %s at scale %v", spec.Name, o.Scale)
	}
	out := TieredTrajectory{
		Experiment:   "tiered",
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Scale:        o.Scale,
		Queries:      len(qs),
		Dataset:      spec.Name,
		N:            ds.N(),
		Dim:          ds.Dim(),
		K:            k,
		Vaults:       tieredVaults,
		DatasetBytes: int64(ds.N()) * int64(ds.Dim()) * 4,
	}

	// In-RAM serial baseline: the same scan order the out-of-core scan
	// walks (vault pages in sequence), so the slowdown isolates the
	// storage tier rather than thread-level parallelism.
	lin := knn.NewEngine(ds.Data, ds.Dim(), vec.Euclidean, 1)
	out.LinearQPS = measureQPS(qs, func(q []float32) { lin.Search(q, k) })
	want := make([][]int, len(qs))
	for i, q := range qs {
		res := lin.Search(q, k)
		want[i] = make([]int, len(res))
		for j, r := range res {
			want[i][j] = r.ID
		}
	}

	dir, err := os.MkdirTemp("", "ssam-bench-tiered-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "gist128.tier")
	if err := tier.WriteFile(path, ds.Data, ds.Dim(), tieredVaults); err != nil {
		return out, err
	}

	for _, frac := range tieredFractions {
		budget := int64(frac * float64(out.DatasetBytes))
		store, err := tier.Open(path, tier.Options{BudgetBytes: budget, Prefetch: true})
		if err != nil {
			return out, err
		}
		eng := knn.NewExactScan(store, vec.Euclidean)

		// Bit-exactness check first; the timed window below reuses the
		// now-warm (to the extent the budget allows) cache.
		exact := true
		for i, q := range qs {
			batch, _, err := eng.Run([][]float32{q}, k, nil)
			if err != nil {
				store.Close()
				return out, err
			}
			res := batch[0]
			if len(res) != len(want[i]) {
				exact = false
				break
			}
			for j, r := range res {
				if r.ID != want[i][j] {
					exact = false
					break
				}
			}
		}

		before := store.Counters()
		var searchErr error
		qps := measureQPS(qs, func(q []float32) {
			if _, _, err := eng.Run([][]float32{q}, k, nil); err != nil && searchErr == nil {
				searchErr = err
			}
		})
		after := store.Counters()
		store.Close()
		if searchErr != nil {
			return out, searchErr
		}

		hits := after.CacheHits - before.CacheHits
		misses := after.CacheMisses - before.CacheMisses
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		out.Rows = append(out.Rows, TieredSweepRow{
			Fraction:     frac,
			BudgetBytes:  budget,
			QPS:          qps,
			Slowdown:     out.LinearQPS / qps,
			BytesRead:    after.BytesRead - before.BytesRead,
			CacheHitRate: hitRate,
			Evictions:    after.Evictions - before.Evictions,
			PrefetchHits: after.PrefetchHits - before.PrefetchHits,
			Exact:        exact,
		})
	}
	return out, nil
}

// TieredSweepReport formats TieredSweep, with the fully-cached
// comparison (the regression gate's bar) in the notes.
func TieredSweepReport(o Options) (Report, error) {
	t, err := TieredSweep(o)
	if err != nil {
		return Report{}, err
	}
	r := Report{
		Title: fmt.Sprintf("Out-of-core scan: QPS vs. cache fraction on %s (%d x %dd, %d pages)",
			t.Dataset, t.N, t.Dim, t.Vaults),
		Header: []string{"fraction", "budget MiB", "q/s", "slowdown", "hit rate", "MiB read", "evictions", "exact"},
		Notes: []string{
			fmt.Sprintf("wall-clock on this machine, GOMAXPROCS=%d NumCPU=%d, single-threaded queries", t.GOMAXPROCS, t.NumCPU),
			fmt.Sprintf("in-RAM serial float32 baseline: %.1f q/s over %.1f MiB", t.LinearQPS, float64(t.DatasetBytes)/(1<<20)),
			"slowdown is vs. that baseline; fraction <= 0.25 puts the dataset at >= 4x the budget",
		},
	}
	for _, row := range t.Rows {
		exact := "yes"
		if !row.Exact {
			exact = "NO"
		}
		r.Rows = append(r.Rows, []string{
			f2(row.Fraction), f2(float64(row.BudgetBytes) / (1 << 20)), f1(row.QPS),
			f2(row.Slowdown), f3(row.CacheHitRate),
			f1(float64(row.BytesRead) / (1 << 20)), itoa(int(row.Evictions)), exact,
		})
	}
	if s := t.FullyCachedSlowdown(); s > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("fully cached slowdown vs. in-RAM: %.2fx", s))
	}
	return r, nil
}
