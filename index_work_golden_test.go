package ssam_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"ssam/internal/dataset"
	"ssam/internal/graph"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/lsh"
	"ssam/internal/ssamdev"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// writeAnswer writes one query's answer, ids and distance bits, to w.
func writeAnswer(w io.Writer, res []topk.Result) {
	for _, r := range res {
		fmt.Fprintf(w, "%d:%016x ", r.ID, math.Float64bits(r.Dist))
	}
	fmt.Fprintln(w)
}

// TestIndexWorkGolden pins, on a fixed seed, the answers and every
// per-query work counter of the four host indexes (kd-tree forest,
// k-means tree, multi-probe LSH, graph) and the device graph model's
// QueryStats. The counters are the raw material of Table I and Fig. 7,
// so a change to how an index searches or counts shows here; a change
// that only moves where the counters live must leave every digest as
// it is. Each counter is written under a fixed label, independent of
// the Go field that holds it.
func TestIndexWorkGolden(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{
		Name: "index-work", N: 1200, Dim: 24, NumQueries: 16, K: 10,
		Clusters: 12, ClusterStd: 0.3, Seed: 0x5eed,
	})
	data, dim, k := ds.Data, ds.Dim(), ds.Spec.K

	forest := kdtree.Build(data, dim, kdtree.DefaultParams())
	forest.Checks = 200
	tree := kmeans.Build(data, dim, kmeans.DefaultParams())
	tree.Checks = 200
	index := lsh.Build(data, dim, lsh.Params{Tables: 4, Bits: 10, Seed: 1})
	index.Probes = 8
	g := graph.Build(data, dim, graph.Params{M: 8, EfConstruction: 40, EfSearch: 32, Seed: 7})
	dev, err := ssamdev.NewFloat(ssamdev.DefaultConfig(8), data, dim, vec.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := dev.AttachGraphIndex(g)
	if err != nil {
		t.Fatal(err)
	}

	modes := []struct {
		name  string
		want  string
		query func(w io.Writer, q []float32)
	}{
		{"kdtree", "4dac94c10f184bd0", func(w io.Writer, q []float32) {
			res, st := forest.SearchStats(q, k)
			writeAnswer(w, res)
			fmt.Fprintf(w, "node_visits=%d leaf_scans=%d dist_evals=%d dims=%d heap_ops=%d\n",
				st.NodeVisits, st.LeafScans, st.DistEvals, st.Dims, st.HeapOps)
		}},
		{"kmeans", "9a6800024bb03091", func(w io.Writer, q []float32) {
			res, st := tree.SearchStats(q, k)
			writeAnswer(w, res)
			fmt.Fprintf(w, "node_visits=%d centroid_evals=%d leaf_scans=%d dist_evals=%d dims=%d heap_ops=%d\n",
				st.NodeVisits, st.CentroidEvals, st.LeafScans, st.DistEvals, st.Dims, st.HeapOps)
		}},
		{"mplsh", "042bbc5d2262c0a6", func(w io.Writer, q []float32) {
			res, st := index.SearchStats(q, k)
			writeAnswer(w, res)
			fmt.Fprintf(w, "hash_dims=%d probes=%d bucket_hits=%d dist_evals=%d dims=%d probe_gen_ops=%d\n",
				st.HashDims, st.Probes, st.LeafScans, st.DistEvals, st.Dims, st.HeapOps)
		}},
		{"graph", "31f0521a038871f8", func(w io.Writer, q []float32) {
			res, st := g.SearchStats(q, k)
			writeAnswer(w, res)
			fmt.Fprintf(w, "hops=%d dist_evals=%d dims=%d heap_ops=%d neighbor_fetches=%d\n",
				st.Hops, st.DistEvals, st.Dims, st.HeapOps, st.NeighborFetches)
		}},
		{"device_graph", "d2266f63fa0da730", func(w io.Writer, q []float32) {
			res, st, err := gi.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			writeAnswer(w, res)
			fmt.Fprintf(w, "cycles=%d seconds=%016x instructions=%d vector_insts=%d dram_bytes_read=%d pq_inserts=%d pus=%d\n",
				st.Cycles, math.Float64bits(st.Seconds), st.Instructions, st.VectorInsts,
				st.DRAMBytesRead, st.PQInserts, st.PUs)
		}},
	}
	for _, m := range modes {
		h := fnv.New64a()
		for _, q := range ds.Queries {
			m.query(h, q)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != m.want {
			t.Errorf("%s: digest %s, want %s", m.name, got, m.want)
		}
	}
}
