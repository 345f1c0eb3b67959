package ssamdev

// On-device kd-tree search: each processing unit holds a kd-tree over
// its own shard in the scratchpad (Section III-D: index structures
// live in the scratchpad) and traverses it with the scalar unit and
// hardware stack, scanning leaf buckets with the vector unit. The
// query is broadcast and every PU runs a bounded depth-first
// backtracking search over its subtree; the host merges the per-PU
// top-k lists. This is the fully simulated counterpart of the analytic
// ApproxQuerySeconds model.

import (
	"fmt"

	"ssam/internal/asm"
	"ssam/internal/isa"
	"ssam/internal/sim"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// treeSlice is one PU's tree-ordered shard image.
type treeSlice struct {
	scratch []int32 // serialized tree (placed at the layout's TreeBase)
	dram    []int32 // rows re-laid in tree order
	ids     []int32 // tree-order row -> global id
}

// TreeIndex is a built on-device kd-tree over a Device's dataset.
type TreeIndex struct {
	dev      *Device
	lay      sim.TreeScratchLayout
	slices   []treeSlice
	leafSize int
	progs    map[int][]isa.Inst // keyed by checks
}

// BuildKDTreeIndex builds a per-PU scratchpad-resident kd-tree with
// the given leaf bucket size. Errors if any PU's tree cannot fit in
// the scratchpad alongside the query.
func (d *Device) BuildKDTreeIndex(leafSize int) (*TreeIndex, error) {
	if d.metric != vec.Euclidean {
		return nil, fmt.Errorf("ssamdev: kd-tree index requires a Euclidean device")
	}
	puCfg := d.puConfig(1)
	lay := sim.TreeLayout(d.dim, d.cfg.PU.VectorLen, puCfg.ScratchWords)
	if lay.MaxNodes < 3 {
		return nil, fmt.Errorf("ssamdev: dims %d leave no scratchpad room for a tree", d.dim)
	}
	ti := &TreeIndex{dev: d, lay: lay, leafSize: leafSize, progs: map[int][]isa.Inst{}}
	for i := range d.slices {
		sl := &d.slices[i]
		n := len(sl.ids)
		tree, err := sim.BuildSerializedTree(sl.dram, n, d.dim, d.padded, leafSize, lay.MaxNodes)
		if err != nil {
			return nil, fmt.Errorf("ssamdev: slice %d: %w", i, err)
		}
		ts := treeSlice{
			scratch: tree.Words,
			dram:    make([]int32, len(sl.dram)),
			ids:     make([]int32, n),
		}
		for newRow, oldRow := range tree.Order {
			copy(ts.dram[newRow*d.padded:(newRow+1)*d.padded],
				sl.dram[int(oldRow)*d.padded:(int(oldRow)+1)*d.padded])
			ts.ids[newRow] = sl.ids[oldRow]
		}
		ti.slices = append(ti.slices, ts)
	}
	return ti, nil
}

// program returns the traversal kernel for a per-PU check budget.
func (t *TreeIndex) program(checks int) ([]isa.Inst, error) {
	if p, ok := t.progs[checks]; ok {
		return p, nil
	}
	src := sim.KDTreeKernel(t.dev.dim, t.dev.cfg.PU.VectorLen, checks, t.lay)
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	t.progs[checks] = prog
	return prog, nil
}

// Search runs the on-device approximate search: every PU scans at most
// checksPerPU vectors from its subtree's closest buckets.
func (t *TreeIndex) Search(q []float32, k, checksPerPU int) ([]topk.Result, QueryStats, error) {
	d := t.dev
	if len(q) != d.dim {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: query dim %d, want %d", len(q), d.dim)
	}
	if checksPerPU <= 0 {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: checks must be positive")
	}
	query := make([]int32, d.padded)
	copy(query, sim.QuantizeDevice(q, d.shift))
	prog, err := t.program(checksPerPU)
	if err != nil {
		return nil, QueryStats{}, err
	}
	puCfg := d.puConfig(((k + topk.QueueDepth - 1) / topk.QueueDepth) * topk.QueueDepth)

	results := make([][]topk.Result, len(t.slices))
	outs := make([]sim.Stats, len(t.slices))
	errs := make([]error, len(t.slices))
	runParallel(len(t.slices), func(idx int) {
		ts := &t.slices[idx]
		pu := sim.New(puCfg, ts.dram)
		if err := pu.WriteScratch(0, query); err != nil {
			errs[idx] = err
			return
		}
		if err := pu.WriteScratch(t.lay.TreeBase, ts.scratch); err != nil {
			errs[idx] = err
			return
		}
		if err := pu.Run(prog); err != nil {
			errs[idx] = err
			return
		}
		local := pu.Results()
		for j := range local {
			local[j].ID = int(ts.ids[local[j].ID])
		}
		results[idx] = local
		outs[idx] = pu.Stats()
	})

	var st QueryStats
	st.PUs = len(t.slices)
	lists := make([][]topk.Result, 0, len(t.slices))
	for idx := range outs {
		if errs[idx] != nil {
			return nil, QueryStats{}, errs[idx]
		}
		lists = append(lists, results[idx])
		s := outs[idx]
		if s.Cycles > st.Cycles {
			st.Cycles = s.Cycles
		}
		st.Instructions += s.Instructions
		st.VectorInsts += s.VectorInsts
		st.DRAMBytesRead += s.DRAMBytesRead
		st.PQInserts += s.PQInserts
	}
	st.Seconds = float64(st.Cycles) / d.cfg.PU.ClockHz
	return topk.MergeSorted(k, lists...), st, nil
}
