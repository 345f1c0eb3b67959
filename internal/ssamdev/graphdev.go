package ssamdev

import (
	"fmt"

	"ssam/internal/graph"
	"ssam/internal/knn"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// GraphIndex maps best-first graph traversal onto the SSAM module the
// way NDSEARCH (arXiv:2312.03141) does: the adjacency lives in vault
// DRAM, so each traversal hop is a dependent neighbor-list fetch
// charged at the vault access latency, while the hop's candidate batch
// of distance evaluations is dispatched to the vault-parallel distance
// kernel at the calibrated per-vector rate. Unlike the scratchpad tree
// indexes (tree.go), which execute on the cycle simulator, the graph
// mapping is analytic — the ApproxQuerySeconds style of model — because
// traversal is data-dependent pointer chasing the batch kernels cannot
// express. Results come from the same host-built graph.Index, so
// Device execution returns bit-identical neighbors to Host execution;
// only the reported QueryStats differ.
type GraphIndex struct {
	dev *Device
	g   *graph.Index
}

// Graph returns the attached host-built index (the EfSearch knob lives
// there, shared by both execution targets).
func (gi *GraphIndex) Graph() *graph.Index { return gi.g }

// AttachGraphIndex attaches a host-built graph to the device. The
// device must be a float Euclidean module over the same database shape
// (the graph traverses squared-L2 space, like the other approximate
// device indexes).
func (d *Device) AttachGraphIndex(g *graph.Index) (*GraphIndex, error) {
	if d.metric != vec.Euclidean {
		return nil, fmt.Errorf("ssamdev: graph index requires a Euclidean device, have %v", d.metric)
	}
	if g.N() != d.n || g.Dim() != d.dim {
		return nil, fmt.Errorf("ssamdev: graph shape %dx%d does not match device %dx%d",
			g.N(), g.Dim(), d.n, d.dim)
	}
	return &GraphIndex{dev: d, g: g}, nil
}

// Search runs one query through the graph at its current EfSearch beam
// and returns the neighbors with modeled device execution stats.
func (gi *GraphIndex) Search(q []float32, k int) ([]topk.Result, QueryStats, error) {
	return gi.SearchEf(q, k, gi.g.EfSearch)
}

// SearchEf is Search with an explicit beam width.
func (gi *GraphIndex) SearchEf(q []float32, k, ef int) ([]topk.Result, QueryStats, error) {
	if len(q) != gi.dev.dim {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: query dim %d, want %d", len(q), gi.dev.dim)
	}
	if k <= 0 {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: k must be positive")
	}
	res, st := gi.g.SearchEfStats(q, k, ef)
	return res, gi.model(st), nil
}

// model converts traversal work into device execution stats.
//
// Traversal is a serial dependence chain on one PU's scalar unit: each
// hop issues a neighbor-list read into vault DRAM (MemLatencyCycles —
// pointer chasing cannot be prefetched) plus the visit bookkeeping,
// and every candidate-heap operation pays the scalar heap charge. The
// hop's distance evaluations are batched to the module's PUs exactly
// like a bucket scan: parallelism is the average candidate batch per
// hop, capped by the module's PU count, at the calibrated
// cycles-per-vector rate. DRAM traffic counts the fetched vectors at
// device layout width plus one word per adjacency entry read.
func (gi *GraphIndex) model(st knn.Stats) QueryStats {
	d := gi.dev
	memLat := float64(d.cfg.PU.MemLatencyCycles)
	serial := float64(st.Hops)*(memLat+cyclesPerNodeVisit) +
		float64(st.HeapOps)*cyclesPerHeapOp

	par := 1.0
	if st.Hops > 0 {
		par = float64(st.DistEvals) / float64(st.Hops)
	}
	if par < 1 {
		par = 1
	}
	if max := float64(len(d.slices)); par > max {
		par = max
	}
	scan := float64(st.DistEvals) * d.cyclesPer / par

	cycles := uint64(serial + scan)
	chunks := uint64((d.padded + d.cfg.PU.VectorLen - 1) / d.cfg.PU.VectorLen)
	// Per distance: one load, one subtract, one multiply-accumulate per
	// vector chunk — the Table II Euclidean inner loop.
	vecInsts := uint64(st.DistEvals) * chunks * 3
	return QueryStats{
		Cycles:        cycles,
		Seconds:       float64(cycles) / d.cfg.PU.ClockHz,
		Instructions:  vecInsts + uint64(st.Hops) + uint64(st.HeapOps),
		VectorInsts:   vecInsts,
		DRAMBytesRead: uint64(st.DistEvals)*uint64(d.padded)*4 + uint64(st.NeighborFetches)*4,
		PQInserts:     uint64(st.HeapOps),
		PUs:           len(d.slices),
	}
}
