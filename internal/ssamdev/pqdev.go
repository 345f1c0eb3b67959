package ssamdev

import (
	"fmt"

	"ssam/internal/knn"
	"ssam/internal/pq"
	"ssam/internal/topk"
)

// PQIndex maps the product-quantized scan onto the SSAM module — the
// §IV bandwidth story with quantization turned on. Per query, each
// vault's processing units hold the M×256 ADC lookup table resident in
// scratchpad (M·1 KiB, built once from the broadcast query and well
// inside the Table III scratchpad budget) and stream only the 8-bit
// code bytes from vault DRAM: one byte per subquantizer per row
// instead of a 4-byte word per dimension, so each DRAM byte performs a
// full table-lookup-accumulate of distance work. Like the graph
// mapping (graphdev.go) the model is analytic rather than cycle-level
// — the gather-indexed table lookup is not in the Table II kernel
// vocabulary — and results come from the attached host engine, so
// Device execution returns bit-identical neighbors to Host execution;
// only the reported QueryStats differ.
type PQIndex struct {
	dev       *Device
	e         *knn.PQScan
	vaultRows []int // database rows laid out in each device vault
}

// AttachPQIndex attaches a host-built product-quantized engine to the
// device. The device must be a float module over the same database
// shape and metric.
func (d *Device) AttachPQIndex(e *knn.PQScan) (*PQIndex, error) {
	if d.origBits != 0 {
		return nil, fmt.Errorf("ssamdev: pq index requires a float device")
	}
	if d.metric != e.Metric() {
		return nil, fmt.Errorf("ssamdev: pq engine metric %v does not match device %v", e.Metric(), d.metric)
	}
	if e.N() != d.n || e.Dim() != d.dim {
		return nil, fmt.Errorf("ssamdev: pq shape %dx%d does not match device %dx%d",
			e.N(), e.Dim(), d.n, d.dim)
	}
	rows := map[int]int{}
	maxVault := 0
	for _, sl := range d.slices {
		rows[sl.vault] += len(sl.ids)
		if sl.vault > maxVault {
			maxVault = sl.vault
		}
	}
	pi := &PQIndex{dev: d, e: e, vaultRows: make([]int, maxVault+1)}
	for v, n := range rows {
		pi.vaultRows[v] = n
	}
	return pi, nil
}

// Search runs one query through the attached engine and returns the
// neighbors with modeled device execution stats.
func (pi *PQIndex) Search(q []float32, k int) ([]topk.Result, QueryStats, error) {
	if len(q) != pi.dev.dim {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: query dim %d, want %d", len(q), pi.dev.dim)
	}
	if k <= 0 {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: k must be positive")
	}
	out, st, _, err := pi.e.RunBatch([][]float32{q}, k, nil)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return out[0], pi.model(st), nil
}

// model converts the host engine's work accounting into device
// execution stats.
//
// The query executes in three phases. (1) Table build: the broadcast
// query is scored against all 256 centroids of every subquantizer —
// Ks·dim multiply-accumulate lanes on the vector units, after which
// the table is scratchpad-resident in every vault. (2) ADC scan: each
// vault streams its rows' M code bytes from DRAM; its PUs retire
// VectorLen table-lookup-accumulates per cycle while the vault link
// delivers VaultBandwidth/ClockHz bytes per cycle, so the vault's scan
// time is the max of the compute and memory bounds — with 1-byte codes
// the stream is ~4·dim/M times lighter than the float32 scan, which is
// the whole point. Vaults run concurrently; the module waits for the
// slowest. (3) Re-rank: the top candidates' full-precision vectors are
// fetched and re-scored at the calibrated per-vector rate, a serial
// tail on the merge path. Top-k maintenance pays the scalar heap
// charge, spread across the PUs that produced the offers.
func (pi *PQIndex) model(st knn.Stats) QueryStats {
	d := pi.dev
	m := pi.e.M()
	vl := float64(d.cfg.PU.VectorLen)
	clock := d.cfg.PU.ClockHz

	tableLanes := float64(pq.Ks * d.dim)
	tableCycles := tableLanes / vl

	memBytesPerCycle := d.cfg.HMC.VaultBandwidth / clock
	var worst float64
	for _, rows := range pi.vaultRows {
		if rows == 0 {
			continue
		}
		bytes := float64(rows * m)
		compute := bytes / (vl * float64(d.pusPerVault))
		memory := bytes / memBytesPerCycle
		if compute > memory {
			memory = compute
		}
		if memory > worst {
			worst = memory
		}
	}

	heap := float64(st.PQInserts) * cyclesPerHeapOp / float64(len(d.slices))
	rerank := float64(st.DistEvals) * d.cyclesPer

	cycles := uint64(tableCycles + worst + heap + rerank)
	chunks := uint64((d.padded + d.cfg.PU.VectorLen - 1) / d.cfg.PU.VectorLen)
	// Vector work: 3 ops per table-build chunk (load, subtract,
	// multiply-accumulate), 2 per scanned code chunk (gather, add), 3
	// per re-rank chunk (the Table II inner loop).
	vecInsts := uint64(tableLanes/vl)*3 +
		uint64(float64(st.CodeEvals*m)/vl)*2 +
		uint64(st.DistEvals)*chunks*3
	return d.applyStorage(QueryStats{
		Cycles:       cycles,
		Seconds:      float64(cycles) / clock,
		Instructions: vecInsts + uint64(st.PQInserts),
		VectorInsts:  vecInsts,
		// Code bytes streamed, the query broadcast, and the
		// full-precision rows fetched for re-rank; the centroid tables
		// are scratchpad-resident, not re-read per query.
		DRAMBytesRead: uint64(st.CodeEvals)*uint64(m) +
			uint64(d.dim)*4 +
			uint64(st.DistEvals)*uint64(d.padded)*4,
		PQInserts: uint64(st.PQInserts),
		PUs:       len(d.slices),
		Host:      st,
	})
}
