// Package ssam is a Go reproduction of the Similarity Search
// Associative Memory (Lee et al., "Application Codesign of Near-Data
// Processing for Similarity Search", IPDPS 2018): a near-data kNN
// accelerator built on the Hybrid Memory Cube, together with the exact
// and approximate k-nearest-neighbor algorithm suite it is evaluated
// against.
//
// The public API mirrors the paper's SSAM-enabled memory-region driver
// interface (Fig. 4): allocate a region, set its indexing mode, copy a
// dataset in, build the index, then run queries — either on the host
// (real Go implementations of linear search, randomized kd-trees,
// hierarchical k-means trees, and hyperplane multi-probe LSH) or on
// the simulated SSAM device (handwritten Table II kernels executing on
// a cycle-level processing-unit simulator over an HMC 2.0 bandwidth
// model).
//
//	region, err := ssam.New(dims, ssam.Config{Mode: ssam.Linear, Execution: ssam.Device})
//	err = region.LoadFloat32(dataset)                   // nmemcpy
//	err = region.BuildIndex()                           // nbuild_index
//	results, stats, err := region.SearchStats(query, k) // nwrite_query + nexec + nread_result,
//	                                                    // stats the simulated device timing
//	region.Free()                                       // nfree
package ssam

import (
	"fmt"

	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Result is one neighbor: database id and distance under the region's
// metric (smaller is closer; Euclidean reports squared distance).
type Result = topk.Result

// BinaryCode is a bit-packed Hamming-space vector for binary regions
// (Section II-D's binarized representation). Construct with
// NewBinaryCode and set bits with Set; vec-package helpers like
// SignBinarize also produce it.
type BinaryCode = vec.Binary

// ScanKernel names the kernel this process runs the exact float scan
// with: "avx2" (the assembly block kernel, on an amd64 CPU that has
// AVX2) or "go" (the pure-Go one, everywhere else). Both return the same
// bits; the name explains a host's scan speed.
func ScanKernel() string { return vec.Kernel() }

// Metric selects the distance function.
type Metric int

// Supported metrics (Section II-D of the paper).
const (
	Euclidean Metric = iota
	Manhattan
	Cosine
	Hamming
)

// String returns the metric name, or "unknown" for out-of-range
// values (which New rejects).
func (m Metric) String() string {
	switch m {
	case Euclidean, Manhattan, Cosine, Hamming:
		return m.toVec().String()
	}
	return "unknown"
}

// Valid reports whether m is one of the supported metrics.
func (m Metric) Valid() bool { return m >= Euclidean && m <= Hamming }

// ParseMetric parses a metric name as produced by Metric.String.
func ParseMetric(s string) (Metric, error) {
	for m := Euclidean; m <= Hamming; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("ssam: unknown metric %q", s)
}

func (m Metric) toVec() vec.Metric {
	switch m {
	case Euclidean:
		return vec.Euclidean
	case Manhattan:
		return vec.Manhattan
	case Cosine:
		return vec.Cosine
	case Hamming:
		return vec.HammingMetric
	}
	return vec.Euclidean
}

// Mode is the region's indexing mode (the nmode call of Fig. 4).
type Mode int

const (
	// Linear scans the whole region per query (exact search).
	Linear Mode = iota
	// KDTree builds a randomized kd-tree forest (FLANN-style).
	KDTree
	// KMeans builds a hierarchical k-means tree (FLANN-style).
	KMeans
	// MPLSH builds hyperplane multi-probe LSH tables (FALCONN-style).
	MPLSH
	// Graph builds an HNSW-style navigable small-world graph and
	// answers queries by best-first traversal (NDSEARCH-style when
	// executed on the device).
	Graph
	// Quantized trains a product-quantization codebook and scans 8-bit
	// codes with per-query ADC lookup tables (André-thesis style),
	// optionally re-ranking the top candidates against the retained
	// float32 vectors for exact distances. Supports the Euclidean,
	// Manhattan and Cosine metrics.
	Quantized
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Linear:
		return "linear"
	case KDTree:
		return "kdtree"
	case KMeans:
		return "kmeans"
	case MPLSH:
		return "mplsh"
	case Graph:
		return "graph"
	case Quantized:
		return "quantized"
	}
	return "unknown"
}

// Valid reports whether m is one of the supported modes.
func (m Mode) Valid() bool { return m >= Linear && m <= Quantized }

// ParseMode parses a mode name as produced by Mode.String.
func ParseMode(s string) (Mode, error) {
	for m := Linear; m <= Quantized; m++ {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("ssam: unknown mode %q", s)
}

// Execution selects where queries run.
type Execution int

const (
	// Host runs queries on the local CPU with the Go implementations.
	Host Execution = iota
	// Device runs queries through the simulated SSAM module: data is
	// quantized to device fixed point, laid out across HMC vaults, and
	// served by assembled Table II kernels on the cycle simulator —
	// linear scans, or (for the Euclidean metric) the on-device
	// indexes: scratchpad-resident kd-trees and hierarchical k-means
	// trees traversed with the hardware stack unit, and hyperplane LSH
	// with hash weights in device memory. For device tree indexes,
	// IndexParams.Checks is the per-processing-unit scan budget.
	Device
)

// String returns the execution name.
func (e Execution) String() string {
	switch e {
	case Host:
		return "host"
	case Device:
		return "device"
	}
	return "unknown"
}

// Valid reports whether e is one of the supported execution targets.
func (e Execution) Valid() bool { return e == Host || e == Device }

// ParseExecution parses an execution name as produced by
// Execution.String.
func ParseExecution(s string) (Execution, error) {
	switch s {
	case "host":
		return Host, nil
	case "device":
		return Device, nil
	}
	return 0, fmt.Errorf("ssam: unknown execution %q", s)
}

// IndexParams tunes the approximate indexes. Zero values select
// defaults matching the paper's characterization setup.
type IndexParams struct {
	// Trees is the kd-forest size (default 4).
	Trees int
	// Branching is the k-means tree fanout (default 16).
	Branching int
	// LeafSize bounds bucket sizes for tree indexes.
	LeafSize int
	// Tables and Bits configure MPLSH (defaults 4 tables, 20 bits —
	// the paper's hyperplane count).
	Tables int
	Bits   int
	// Checks bounds vectors scored per tree query; Probes bounds
	// buckets probed per LSH table. Sweeping them trades accuracy for
	// throughput (Fig. 2).
	Checks int
	Probes int
	// M and EfConstruction shape the Graph mode's HNSW build: M bounds
	// per-layer out-degree (default 16), EfConstruction the insertion
	// beam (default 100). EfSearch is the query-time beam — the graph
	// analogue of Checks (default 64); sweeping it traces the
	// recall-vs-QPS frontier.
	M              int
	EfConstruction int
	EfSearch       int
	// Sample and Rerank shape the Quantized mode: M doubles as the
	// subquantizer count (code bytes per row, default 8), Sample is the
	// codebook-training sample size (default 8192), and Rerank re-scores
	// the top-Rerank ADC candidates against the retained float32
	// vectors for exact distances (0 = ADC only; >= the dataset size
	// makes results identical to the exact linear scan). Rerank is the
	// Quantized accuracy knob, retargeted by SetChecks.
	Sample int
	Rerank int
	// Seed makes index construction reproducible.
	Seed int64
}

// Storage backs a region's full-precision vectors with a file served
// through an admission-controlled page cache, so the region can serve
// datasets larger than the configured memory budget (the ann_in_ssd
// out-of-core arrangement). Pages are the region's vault chunks, which
// keeps out-of-core results bit-identical to in-RAM: the same bytes
// feed the same kernels in the same merge order. Supported for Linear
// and Quantized modes on float metrics; storage-backed regions are
// immutable (Upsert/Delete return an error).
type Storage struct {
	// Path is the backing file, written by BuildIndex. Required for
	// Host execution; optional for Device execution, where the storage
	// tier is priced analytically by the device model instead.
	Path string
	// BudgetBytes caps the bytes of vector pages resident in memory
	// (0 = unlimited). Budgets below one page degrade to streaming
	// reads: correct, every scan re-reads the file.
	BudgetBytes int64
	// Prefetch overlaps the next vault's read with the current vault's
	// scan.
	Prefetch bool
}

// Config configures a region at allocation time.
type Config struct {
	Metric    Metric
	Mode      Mode
	Execution Execution
	// VectorLength selects the SSAM-n device variant (2, 4, 8 or 16)
	// for Device execution; default 8.
	VectorLength int
	// Vaults sets the intra-query scan partition count for Host linear
	// execution, mirroring the paper's per-vault accelerators: the
	// dataset is split into Vaults contiguous slices scanned
	// concurrently and merged on the host. 0 selects min(32,
	// GOMAXPROCS); values above 32 (the HMC vault count) are clamped;
	// negative values are rejected by New. Results are bit-identical at
	// every vault count.
	Vaults int
	// Index tunes approximate modes.
	Index IndexParams
	// Storage, when non-nil, backs the region's vectors with a file
	// behind a budgeted page cache (out-of-core serving). See Storage.
	Storage *Storage
}

// DeviceStats reports the simulated execution of the last Device-mode
// query (zero for Host execution).
type DeviceStats struct {
	// Cycles is the slowest processing unit's cycle count (device
	// latency) and Seconds its wall-clock equivalent at the device
	// clock.
	Cycles  uint64
	Seconds float64
	// Instructions and VectorInstructions are summed over all
	// processing units.
	Instructions       uint64
	VectorInstructions uint64
	// DRAMBytesRead is the total vault traffic.
	DRAMBytesRead uint64
	// ProcessingUnits is the module's total PU count.
	ProcessingUnits int
	// StorageBytesRead, StorageCacheHits and StorageStalls report the
	// modeled storage tier of a device with attached storage
	// (ssam.Storage on a Device region): bytes fetched from the backing
	// device, page requests served from the device-side cache, and
	// whole-queue stall events where the scan waited on storage. Zero
	// when no storage is attached.
	StorageBytesRead uint64
	StorageCacheHits uint64
	StorageStalls    uint64
}

// Work is what one search call did, summed over its batch exactly as
// its queries run one at a time would sum: the simulated execution (zero
// for Host execution) and the host work counters. No region keeps a
// running total; a caller that wants one adds up the Work it is handed.
type Work struct {
	DeviceStats
	DistEvals int // full-precision distance computations (a Quantized region's re-rank)
	Dims      int // vector dimensions those and the ADC table builds touched
	// A Quantized region's ADC lookup tables built (one a query), code
	// rows scored, and passes rerun because the pilot's bound kept too few.
	TableBuilds, CodeEvals, Rescans int
}

// Throughput returns queries/second implied by the device latency.
func (s DeviceStats) Throughput() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return 1 / s.Seconds
}
