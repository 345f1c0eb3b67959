// Package profile reproduces the Table I instruction-mix
// characterization of the SSAM paper. The paper instrumented FLANN and
// FALCONN with Pin on an i7-4790K; we cannot run Pin here, so instead
// the engines report their *measured* per-query work and this package
// converts that work into instruction-category counts using fixed
// per-operation recipes. The work is one record, knn.Stats, whichever
// engine filled it: the linear scan its DistEvals, Dims, PQInserts and
// PQKept; the kd-tree forest and the k-means tree their NodeVisits,
// LeafScans and HeapOps (and the k-means tree its CentroidEvals);
// multi-probe LSH its HashDims, Probes, LeafScans and HeapOps (probe
// generation).
//
// Category conventions follow Pin's instruction-mix tool: a vector
// load counts both as a vector (AVX/SSE) instruction and as a memory
// read, which is why the paper's rows sum to slightly more than 100%.
// The recipe constants are calibrated so that exact linear search on
// the GloVe-like workload lands near the paper's 54.75% AVX / 45.23%
// read / 0.44% write profile; every other algorithm then uses the same
// constants, so the cross-algorithm differences (less vectorization
// and far more memory writes in kd-tree and MPLSH traversal) emerge
// from the measured traversal stats, not from per-algorithm tuning.
package profile

import (
	"math"

	"ssam/internal/knn"
)

// Mix is an instruction-category census for some amount of work.
type Mix struct {
	VectorArith float64 // vector arithmetic instructions
	VectorLoad  float64 // vector loads (also memory reads)
	ScalarRead  float64 // scalar loads
	ScalarWrite float64 // scalar stores
	ScalarOther float64 // scalar ALU/branch instructions
}

// Add accumulates other into m.
func (m *Mix) Add(other Mix) {
	m.VectorArith += other.VectorArith
	m.VectorLoad += other.VectorLoad
	m.ScalarRead += other.ScalarRead
	m.ScalarWrite += other.ScalarWrite
	m.ScalarOther += other.ScalarOther
}

// Total returns the total instruction count.
func (m Mix) Total() float64 {
	return m.VectorArith + m.VectorLoad + m.ScalarRead + m.ScalarWrite + m.ScalarOther
}

// VectorPct returns the percentage of AVX/SSE instructions (vector
// arithmetic plus vector loads), Table I column 1.
func (m Mix) VectorPct() float64 {
	return 100 * (m.VectorArith + m.VectorLoad) / m.Total()
}

// ReadPct returns the percentage of instructions that read memory
// (vector loads plus scalar loads), Table I column 2.
func (m Mix) ReadPct() float64 {
	return 100 * (m.VectorLoad + m.ScalarRead) / m.Total()
}

// WritePct returns the percentage of instructions that write memory,
// Table I column 3.
func (m Mix) WritePct() float64 {
	return 100 * m.ScalarWrite / m.Total()
}

// Per-operation recipes. vecWidth is the SIMD width in float32 lanes
// (AVX = 8).
const vecWidth = 8

// distanceMix models one vectorized distance computation over dims
// dimensions: per chunk, load both operand chunks, subtract, fused
// multiply-add, plus loop/pointer overhead.
func distanceMix(dims float64) Mix {
	chunks := dims / vecWidth
	return Mix{
		VectorArith: 2 * chunks,
		VectorLoad:  2 * chunks,
		ScalarRead:  1 * chunks,
		ScalarOther: 2 * chunks,
	}
}

// candidateMix models per-candidate top-k bookkeeping: bound compare
// and branch, plus a heap update on admitted candidates.
func candidateMix(scored, kept float64, k int) Mix {
	lg := math.Log2(float64(k)) + 1
	return Mix{
		ScalarRead:  2*scored + lg*kept,
		ScalarWrite: lg * kept,
		ScalarOther: 3 * scored,
	}
}

// nodeVisitMix models one interior-node traversal step: load node
// fields, compute the split test, branch. FLANN nodes are
// pointer-chased multi-word records.
func nodeVisitMix(visits float64) Mix {
	return Mix{ScalarRead: 6 * visits, ScalarOther: 8 * visits}
}

// heapOpMix models one backtracking-heap push or pop: FLANN branch
// records are multi-word (node pointer, bound, tree id) and heap
// maintenance reads and writes several entries.
func heapOpMix(ops float64) Mix {
	return Mix{ScalarRead: 6 * ops, ScalarWrite: 7 * ops, ScalarOther: 8 * ops}
}

// dedupMix models one visited-set membership insert — FLANN stamps a
// per-vector "checked" timestamp (a guaranteed write per scored
// candidate), MPLSH inserts into a hash set.
func dedupMix(inserts float64) Mix {
	return Mix{ScalarRead: 2 * inserts, ScalarWrite: 4 * inserts, ScalarOther: 3 * inserts}
}

// scalarProjectionMix models hash-function evaluation in MPLSH. The
// paper observes HP-MPLSH performance is "dominated mostly by hashing
// rate"; FALCONN's hash pipeline (random projection, rounding, bucket
// id assembly) runs largely scalar relative to the bulk distance
// scans, so hash dimensions cost scalar reads and ALU ops here.
func scalarProjectionMix(dims float64) Mix {
	return Mix{ScalarRead: 1 * dims, ScalarWrite: 0.75 * dims, ScalarOther: 2 * dims}
}

// LinearMix converts measured linear-scan work into an instruction mix.
func LinearMix(st knn.Stats, k int) Mix {
	m := distanceMix(float64(st.Dims))
	m.Add(candidateMix(float64(st.PQInserts), float64(st.PQKept), k))
	return m
}

// KDTreeMix converts measured kd-tree query work into an instruction
// mix.
func KDTreeMix(st knn.Stats, k int) Mix {
	m := distanceMix(float64(st.Dims))
	m.Add(candidateMix(float64(st.DistEvals), float64(st.DistEvals)/3, k))
	m.Add(nodeVisitMix(float64(st.NodeVisits)))
	m.Add(heapOpMix(float64(st.HeapOps)))
	m.Add(dedupMix(float64(st.DistEvals)))
	return m
}

// KMeansMix converts measured k-means-tree query work into an
// instruction mix. Centroid distance math is already included in
// st.Dims.
func KMeansMix(st knn.Stats, k int) Mix {
	m := distanceMix(float64(st.Dims))
	m.Add(candidateMix(float64(st.DistEvals), float64(st.DistEvals)/3, k))
	m.Add(nodeVisitMix(float64(st.NodeVisits + st.CentroidEvals)))
	m.Add(heapOpMix(float64(st.HeapOps)))
	return m
}

// MPLSHMix converts measured multi-probe LSH query work into an
// instruction mix. Bucket scans vectorize; hashing, probe generation,
// bucket lookups and candidate dedup are scalar-heavy.
func MPLSHMix(st knn.Stats, k int) Mix {
	m := distanceMix(float64(st.Dims))
	m.Add(scalarProjectionMix(float64(st.HashDims)))
	m.Add(candidateMix(float64(st.DistEvals), float64(st.DistEvals)/3, k))
	m.Add(heapOpMix(float64(st.HeapOps)))
	// Bucket probes are hash-map lookups.
	m.Add(Mix{
		ScalarRead:  5 * float64(st.Probes),
		ScalarOther: 6 * float64(st.Probes),
	})
	m.Add(dedupMix(float64(st.DistEvals)))
	return m
}
