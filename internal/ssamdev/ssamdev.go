// Package ssamdev models a complete SSAM module (Section III): an HMC
// 2.0 whose logic layer carries one accelerator per vault controller,
// each accelerator holding enough processing units to saturate its
// vault's 10 GB/s ("we replicate processing units to fully use the
// memory bandwidth by measuring the peak bandwidth needs of each
// processing unit"). A query is broadcast to every processing unit;
// each PU runs the handwritten kernel over its contiguous slice of its
// vault's shard, leaves its local top-k in the hardware priority
// queue, and the host performs the final global top-k reduction.
//
// Everything on the data path is real: datasets are quantized to
// device fixed point, laid out per vault, and scanned by assembled
// Table II kernels executing on the cycle-level simulator. Query
// latency is the slowest PU's cycle count at the configured clock.
package ssamdev

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ssam/internal/asm"
	"ssam/internal/hmc"
	"ssam/internal/isa"
	"ssam/internal/sim"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Config selects the module geometry.
type Config struct {
	PU  sim.Config
	HMC hmc.Config
	// PUsPerVault fixes the replication factor; 0 sizes it
	// automatically from the kernel's measured bandwidth demand.
	PUsPerVault int
	// MaxAutoPUs caps automatic replication (layout area is finite).
	MaxAutoPUs int
}

// DefaultConfig returns an SSAM-n module (vector length n) on HMC 2.0.
func DefaultConfig(vlen int) Config {
	return Config{
		PU:         sim.DefaultConfig(vlen),
		HMC:        hmc.HMC2(),
		MaxAutoPUs: 8,
	}
}

// Device is a loaded SSAM module ready to serve queries.
type Device struct {
	cfg      Config
	metric   vec.Metric
	dim      int // dimensions (float metrics) or packed words (Hamming)
	origBits int // Hamming: code width in bits
	n        int
	shift    int // device fixed-point fraction bits (float metrics)
	padded   int // words per vector as laid out on device

	slices      []puSlice // one per processing unit, all vaults
	pusPerVault int
	storage     *StorageConfig // modeled flash tier (storagedev.go), nil = all-DRAM
	cyclesPer   float64        // calibrated cycles per scanned vector per PU
	progCache   map[int][]isa.Inst
	progMu      sync.Mutex
}

// puSlice is one processing unit's contiguous share of a vault shard.
type puSlice struct {
	vault int
	ids   []int32 // database ids, slice-local order
	dram  []int32 // padded fixed-point vectors
}

// QueryStats reports one query's simulated execution.
type QueryStats struct {
	Cycles        uint64 // slowest PU (device latency)
	Seconds       float64
	Instructions  uint64 // summed over PUs
	VectorInsts   uint64
	DRAMBytesRead uint64
	PQInserts     uint64
	PUs           int
	// Storage tier (attached via AttachStorage; zero otherwise): bytes
	// fetched from modeled flash, page requests served from the
	// device-side cache, and channel-array waves the scan stalled on.
	StorageBytesRead uint64
	StorageCacheHits uint64
	StorageStalls    uint64
}

// Throughput returns queries/second at the device clock.
func (s QueryStats) Throughput() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return 1 / s.Seconds
}

// NewFloat builds a device over a float database using the given
// metric (Euclidean, Manhattan or Cosine). Data is quantized to the
// per-dimensionality device fixed point and partitioned across vaults.
func NewFloat(cfg Config, data []float32, dim int, metric vec.Metric) (*Device, error) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("ssamdev: data length %d not a multiple of dim %d", len(data), dim)
	}
	switch metric {
	case vec.Euclidean, vec.Manhattan, vec.Cosine:
	default:
		return nil, fmt.Errorf("ssamdev: NewFloat does not support metric %v", metric)
	}
	d := &Device{
		cfg:    cfg,
		metric: metric,
		dim:    dim,
		n:      len(data) / dim,
		shift:  sim.DeviceShift(dim),
		padded: sim.PadDims(dim, cfg.PU.VectorLen),
	}
	quant := func(i int) []int32 {
		return sim.QuantizeDevice(data[i*dim:(i+1)*dim], d.shift)
	}
	if err := d.layout(quant); err != nil {
		return nil, err
	}
	return d, nil
}

// NewBinary builds a Hamming-space device over bit-packed codes.
func NewBinary(cfg Config, codes []vec.Binary) (*Device, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("ssamdev: empty code set")
	}
	words := sim.HammingWords(codes[0].Dim)
	d := &Device{
		cfg:      cfg,
		metric:   vec.HammingMetric,
		dim:      words,
		origBits: codes[0].Dim,
		n:        len(codes),
		padded:   sim.PadDims(words, cfg.PU.VectorLen),
	}
	pack := func(i int) []int32 {
		if codes[i].Dim != codes[0].Dim {
			panic("ssamdev: mixed code widths")
		}
		return packWords(codes[i], words)
	}
	if err := d.layout(pack); err != nil {
		return nil, err
	}
	return d, nil
}

func packWords(b vec.Binary, words int) []int32 {
	out := make([]int32, words)
	for w := 0; w < words; w++ {
		word := b.Words[w/2]
		if w%2 == 1 {
			word >>= 32
		}
		out[w] = int32(uint32(word))
	}
	return out
}

// layout partitions vectors across vaults and PU slices and calibrates
// replication.
func (d *Device) layout(fetch func(i int) []int32) error {
	bytesNeeded := int64(d.n) * int64(d.padded) * 4
	if !d.cfg.HMC.Fits(bytesNeeded) {
		return fmt.Errorf("ssamdev: dataset (%d bytes) exceeds module capacity %d; compose multiple modules",
			bytesNeeded, d.cfg.HMC.CapacityBytes)
	}
	d.progCache = make(map[int][]isa.Inst)

	// Calibrate cycles/vector with a probe PU over a small slice at
	// full vault bandwidth, then size replication so the PUs in a
	// vault together consume the vault's bandwidth.
	probeN := d.n
	if probeN > 64 {
		probeN = 64
	}
	probe := make([]int32, probeN*d.padded)
	for i := 0; i < probeN; i++ {
		copy(probe[i*d.padded:], fetch(i))
	}
	probeCfg := d.cfg.PU
	probeCfg.MemBytesPerCycle = d.cfg.HMC.VaultBandwidth / probeCfg.ClockHz
	pu := sim.New(probeCfg, probe)
	if err := pu.WriteScratch(0, make([]int32, d.padded)); err != nil {
		return err
	}
	prog, err := d.program(probeN)
	if err != nil {
		return err
	}
	if err := pu.Run(prog); err != nil {
		return fmt.Errorf("ssamdev: calibration run: %w", err)
	}
	d.cyclesPer = float64(pu.Stats().Cycles) / float64(probeN)

	// Replication is a design-time decision fixed by the *peak*
	// bandwidth kernel (the paper sizes PUs by "the peak bandwidth
	// needs of each processing unit across all indexing techniques"),
	// so cheaper kernels run on the same hardware rather than getting
	// extra units: cosine and Manhattan become compute-bound, Hamming
	// keeps the float design's replication rather than exploding it to
	// chase its tiny code footprint. The reference is therefore always
	// the Euclidean kernel over the workload's float dimensionality
	// (for binary devices, the bit width stands in for the original
	// float dimensionality it was binarized from).
	refCycles := d.cyclesPer
	refPadded := d.padded
	if d.metric != vec.Euclidean {
		refDim := d.dim
		if d.metric == vec.HammingMetric {
			refDim = d.origBits
		}
		refPadded = sim.PadDims(refDim, d.cfg.PU.VectorLen)
		refProbe := make([]int32, probeN*refPadded)
		refPU := sim.New(probeCfg, refProbe)
		if err := refPU.WriteScratch(0, make([]int32, refPadded)); err != nil {
			return err
		}
		refSrc := sim.EuclideanKernel(refDim, probeN, d.cfg.PU.VectorLen)
		refProg, err := asm.Assemble(refSrc)
		if err != nil {
			return err
		}
		if err := refPU.Run(refProg); err != nil {
			return fmt.Errorf("ssamdev: reference calibration run: %w", err)
		}
		refCycles = float64(refPU.Stats().Cycles) / float64(probeN)
	}

	d.pusPerVault = d.cfg.PUsPerVault
	if d.pusPerVault <= 0 {
		// Demand in bytes/cycle for one PU at full speed, at the
		// reference design point.
		demand := float64(refPadded*4) / refCycles
		vaultBytesPerCycle := d.cfg.HMC.VaultBandwidth / d.cfg.PU.ClockHz
		d.pusPerVault = int(math.Round(vaultBytesPerCycle / demand))
		if d.pusPerVault < 1 {
			d.pusPerVault = 1
		}
		max := d.cfg.MaxAutoPUs
		if max <= 0 {
			max = 8
		}
		if d.pusPerVault > max {
			d.pusPerVault = max
		}
	}

	// Build per-PU slices: vault shards split contiguously among PUs.
	parts := d.cfg.HMC.PartitionItems(d.n)
	for _, part := range parts {
		shardN := part.End - part.Start
		if shardN == 0 {
			continue
		}
		per := (shardN + d.pusPerVault - 1) / d.pusPerVault
		for lo := 0; lo < shardN; lo += per {
			hi := lo + per
			if hi > shardN {
				hi = shardN
			}
			sl := puSlice{
				vault: part.Vault,
				ids:   make([]int32, hi-lo),
				dram:  make([]int32, (hi-lo)*d.padded),
			}
			for i := lo; i < hi; i++ {
				global := part.Start + i
				sl.ids[i-lo] = int32(global)
				copy(sl.dram[(i-lo)*d.padded:], fetch(global))
			}
			d.slices = append(d.slices, sl)
		}
	}
	return nil
}

// program returns the assembled kernel for a slice of nvec vectors.
func (d *Device) program(nvec int) ([]isa.Inst, error) {
	d.progMu.Lock()
	defer d.progMu.Unlock()
	if p, ok := d.progCache[nvec]; ok {
		return p, nil
	}
	var src string
	vl := d.cfg.PU.VectorLen
	switch d.metric {
	case vec.Euclidean:
		src = sim.EuclideanKernel(d.dim, nvec, vl)
	case vec.Manhattan:
		src = sim.ManhattanKernel(d.dim, nvec, vl)
	case vec.Cosine:
		src = sim.CosineKernel(d.dim, nvec, vl)
	case vec.HammingMetric:
		src = sim.HammingKernel(d.dim, nvec, vl)
	default:
		return nil, fmt.Errorf("ssamdev: no kernel for metric %v", d.metric)
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("ssamdev: kernel assembly: %w", err)
	}
	if d.progCache == nil {
		d.progCache = make(map[int][]isa.Inst)
	}
	d.progCache[nvec] = prog
	return prog, nil
}

// N returns the database size.
func (d *Device) N() int { return d.n }

// PUsPerVault returns the replication factor chosen at layout time.
func (d *Device) PUsPerVault() int { return d.pusPerVault }

// TotalPUs returns the number of processing units on the module.
func (d *Device) TotalPUs() int { return len(d.slices) }

// CyclesPerVector returns the calibrated per-PU scan cost.
func (d *Device) CyclesPerVector() float64 { return d.cyclesPer }

// Shift returns the device fixed-point fraction bits.
func (d *Device) Shift() int { return d.shift }

// Search runs a float query against the device and returns the global
// top-k with simulated execution stats.
func (d *Device) Search(q []float32, k int) ([]topk.Result, QueryStats, error) {
	if d.metric == vec.HammingMetric {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: float Search on a Hamming device")
	}
	if len(q) != d.dim {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: query dim %d, want %d", len(q), d.dim)
	}
	query := make([]int32, d.padded)
	copy(query, sim.QuantizeDevice(q, d.shift))
	return d.run(query, k)
}

// SearchBinary runs a Hamming query against a binary device.
func (d *Device) SearchBinary(q vec.Binary, k int) ([]topk.Result, QueryStats, error) {
	if d.metric != vec.HammingMetric {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: binary Search on a %v device", d.metric)
	}
	query := make([]int32, d.padded)
	copy(query, packWords(q, d.dim))
	return d.run(query, k)
}

// run broadcasts the query to every PU and reduces.
func (d *Device) run(query []int32, k int) ([]topk.Result, QueryStats, error) {
	type puOut struct {
		res   []topk.Result
		stats sim.Stats
		err   error
	}
	outs := make([]puOut, len(d.slices))

	puCfg := d.cfg.PU
	puCfg.MemBytesPerCycle = d.cfg.HMC.VaultBandwidth / puCfg.ClockHz / float64(d.pusPerVault)
	// Chain queue stages to cover k.
	if k > puCfg.QueueDepth {
		puCfg.QueueDepth = (k + topk.QueueDepth - 1) / topk.QueueDepth * topk.QueueDepth
	}

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sl := &d.slices[i]
				prog, err := d.program(len(sl.ids))
				if err != nil {
					outs[i].err = err
					continue
				}
				pu := sim.New(puCfg, sl.dram)
				if err := pu.WriteScratch(0, query); err != nil {
					outs[i].err = err
					continue
				}
				if err := pu.Run(prog); err != nil {
					outs[i].err = err
					continue
				}
				local := pu.Results()
				// Map slice-local ids to global ids.
				for j := range local {
					local[j].ID = int(sl.ids[local[j].ID])
				}
				outs[i].res = local
				outs[i].stats = pu.Stats()
			}
		}()
	}
	for i := range d.slices {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var st QueryStats
	st.PUs = len(d.slices)
	lists := make([][]topk.Result, 0, len(outs))
	for i := range outs {
		if outs[i].err != nil {
			return nil, QueryStats{}, outs[i].err
		}
		lists = append(lists, outs[i].res)
		s := outs[i].stats
		if s.Cycles > st.Cycles {
			st.Cycles = s.Cycles
		}
		st.Instructions += s.Instructions
		st.VectorInsts += s.VectorInsts
		st.DRAMBytesRead += s.DRAMBytesRead
		st.PQInserts += s.PQInserts
	}
	st.Seconds = float64(st.Cycles) / d.cfg.PU.ClockHz
	st = d.applyStorage(st)
	return topk.MergeSorted(k, lists...), st, nil
}

// ApproxWork summarizes the per-query work of an indexed (approximate)
// search, fed by the host-side index implementations.
type ApproxWork struct {
	DistEvals     int // database vectors scored in bucket scans
	LeafScans     int // distinct buckets scanned
	NodeVisits    int // interior traversal steps (scalar unit)
	HeapOps       int // backtracking heap operations (scalar unit)
	CentroidEvals int // centroid distances (vector math, one PU)
	HashDims      int // hash projection dimensions (vector math, one PU)
}

// Scalar-unit cycle charges for traversal steps, matching the kd-tree
// and backtracking code a PU would execute from scratchpad-resident
// indices (Section III-D).
const (
	cyclesPerNodeVisit = 8
	cyclesPerHeapOp    = 10
)

// ApproxQuerySeconds converts indexed-search work into device time
// (the Fig. 7 model): traversal and hashing run on one PU's scalar and
// vector units; bucket scans parallelize across PUs, at most one PU
// per scanned bucket.
func (d *Device) ApproxQuerySeconds(w ApproxWork) float64 {
	clock := d.cfg.PU.ClockHz
	vl := float64(d.cfg.PU.VectorLen)
	serial := float64(w.NodeVisits)*cyclesPerNodeVisit + float64(w.HeapOps)*cyclesPerHeapOp
	// Vector work executed on the querying PU: centroid distances and
	// hash projections, at the calibrated per-vector rate.
	serial += float64(w.CentroidEvals) * d.cyclesPer
	serial += float64(w.HashDims) / vl * 3 // mult+add per chunk plus load
	par := float64(w.LeafScans)
	if par < 1 {
		par = 1
	}
	if max := float64(len(d.slices)); par > max {
		par = max
	}
	scan := float64(w.DistEvals) * d.cyclesPer / par
	return (serial + scan) / clock
}
