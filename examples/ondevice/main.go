// Ondevice demonstrates the full near-data stack through the public
// API: the same corpus served by the simulated SSAM in linear mode and
// with all three on-device indexes (kd-tree and hierarchical k-means
// trees traversed with the hardware stack unit, hyperplane LSH with
// hash weights in device memory), reporting recall against exact
// search and the simulated device cost of each.
package main

import (
	"fmt"
	"log"

	"ssam"
	"ssam/internal/dataset"
)

func main() {
	ds := dataset.Generate(dataset.Spec{
		Name: "ondevice", N: 20000, Dim: 64, NumQueries: 8, K: 10,
		Clusters: 24, ClusterStd: 0.3, Seed: 12,
	})

	// Exact host baseline for recall accounting.
	exact, err := ssam.New(ds.Dim(), ssam.Config{Mode: ssam.Linear})
	if err != nil {
		log.Fatal(err)
	}
	defer exact.Free()
	must(exact.LoadFloat32(ds.Data))
	must(exact.BuildIndex())

	configs := []struct {
		name string
		cfg  ssam.Config
	}{
		{"linear scan", ssam.Config{Mode: ssam.Linear, Execution: ssam.Device}},
		{"kd-tree (stack unit)", ssam.Config{
			Mode: ssam.KDTree, Execution: ssam.Device,
			Index: ssam.IndexParams{Checks: 24},
		}},
		{"k-means tree", ssam.Config{
			Mode: ssam.KMeans, Execution: ssam.Device,
			Index: ssam.IndexParams{Checks: 24, Branching: 4},
		}},
		{"multi-probe LSH", ssam.Config{
			Mode: ssam.MPLSH, Execution: ssam.Device,
			Index: ssam.IndexParams{Tables: 4, Bits: 6, Probes: 8},
		}},
	}

	fmt.Printf("%-22s %-8s %-12s %-12s %-8s\n",
		"engine", "recall", "cycles/query", "us @1GHz", "PUs")
	for _, c := range configs {
		r, err := ssam.New(ds.Dim(), c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		must(r.LoadFloat32(ds.Data))
		must(r.BuildIndex())

		hits, total := 0, 0
		var cycles uint64
		var pus int
		for _, q := range ds.Queries {
			want, err := exact.Search(q, 10)
			if err != nil {
				log.Fatal(err)
			}
			got, st, err := r.SearchStats(q, 10)
			if err != nil {
				log.Fatal(err)
			}
			cycles += st.Cycles
			pus = st.ProcessingUnits
			in := map[int]bool{}
			for _, w := range want {
				in[w.ID] = true
			}
			for _, g := range got {
				total++
				if in[g.ID] {
					hits++
				}
			}
		}
		perQuery := float64(cycles) / float64(len(ds.Queries))
		fmt.Printf("%-22s %-8.3f %-12.0f %-12.3f %-8d\n",
			c.name, float64(hits)/float64(total), perQuery, perQuery/1e3, pus)
		r.Free()
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
