// Quickstart: allocate an SSAM-enabled memory region, load a dataset,
// and run a k-nearest-neighbor query — first on the host CPU, then on
// the simulated SSAM device, mirroring the paper's Fig. 4 usage.
package main

import (
	"fmt"
	"log"

	"ssam"
	"ssam/internal/dataset"
)

func main() {
	// A small GloVe-like corpus: 100-dimensional synthetic embeddings.
	ds := dataset.Generate(dataset.Spec{
		Name: "quickstart", N: 5000, Dim: 100, NumQueries: 1, K: 6,
		Clusters: 32, ClusterStd: 0.3, Seed: 1,
	})
	query := ds.Queries[0]

	// Host execution: exact linear scan on the CPU.
	host, err := ssam.New(ds.Dim(), ssam.Config{Mode: ssam.Linear})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Free()
	if err := host.LoadFloat32(ds.Data); err != nil {
		log.Fatal(err)
	}
	if err := host.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	hostRes, err := host.Search(query, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("host linear search, top-6:")
	for _, r := range hostRes {
		fmt.Printf("  id=%-6d dist=%.4f\n", r.ID, r.Dist)
	}

	// Device execution: the same search through the simulated SSAM-8
	// module — fixed-point kernels on the cycle simulator over HMC.
	dev, err := ssam.New(ds.Dim(), ssam.Config{
		Mode:      ssam.Linear,
		Execution: ssam.Device,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dev.Free()
	if err := dev.LoadFloat32(ds.Data); err != nil {
		log.Fatal(err)
	}
	if err := dev.BuildIndex(); err != nil {
		log.Fatal(err)
	}
	devRes, st, err := dev.SearchStats(query, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSSAM device search, top-6:")
	for _, r := range devRes {
		fmt.Printf("  id=%-6d dist=%.0f (device fixed-point units)\n", r.ID, r.Dist)
	}

	fmt.Printf("\ndevice execution: %d PUs, %d cycles, %.3f ms @1GHz, %.0f queries/s\n",
		st.ProcessingUnits, st.Cycles, st.Seconds*1e3, st.Throughput())

	// The two top-k id sets should agree (device quantization permits
	// occasional tail swaps).
	agree := 0
	in := map[int]bool{}
	for _, r := range hostRes {
		in[r.ID] = true
	}
	for _, r := range devRes {
		if in[r.ID] {
			agree++
		}
	}
	fmt.Printf("host/device agreement: %d/6\n", agree)
}
