// Package wire defines the JSON request/response types shared by the
// SSAM query server (internal/server) and the Go client
// (internal/client). Enum-valued fields travel as their String()
// names ("euclidean", "kdtree", "device", ...) so payloads stay
// readable in curl transcripts.
package wire

import "ssam/internal/obs"

// RegionConfig mirrors ssam.Config for region creation over the wire.
// Only float-metric regions are servable: binary (Hamming-code)
// payloads have no JSON vector representation here yet.
type RegionConfig struct {
	Metric       string `json:"metric,omitempty"`        // euclidean|manhattan|cosine (default euclidean)
	Mode         string `json:"mode,omitempty"`          // linear|kdtree|kmeans|mplsh|graph (default linear)
	Execution    string `json:"execution,omitempty"`     // host|device (default host)
	VectorLength int    `json:"vector_length,omitempty"` // device variant: 2|4|8|16
	Workers      int    `json:"workers,omitempty"`
	// Vaults sets the intra-query scan partition count for host linear
	// execution (0 = min(32, GOMAXPROCS); clamped to 32). Results are
	// bit-identical at every vault count.
	Vaults int         `json:"vaults,omitempty"`
	Index  IndexParams `json:"index,omitempty"`
	// Sharding, when present, makes the region a scatter-gather
	// cluster of independent shard regions (internal/cluster), each
	// with its own simulated device module.
	Sharding *ShardingConfig `json:"sharding,omitempty"`
	// Replicas, when present, makes the region a replica group
	// (internal/replica): N interchangeable copies of the backend
	// (each its own region, or its own cluster when Sharding is also
	// set) behind power-of-two-choices routing with hedged reads,
	// transparent failover, and zero-downtime generational reload.
	Replicas *ReplicasConfig `json:"replicas,omitempty"`
	// Storage, when present, backs the region's vectors with a file
	// behind a budgeted page cache (out-of-core serving, linear and
	// quantized modes only). Not combinable with Sharding or Replicas.
	Storage *StorageConfig `json:"storage,omitempty"`
}

// StorageConfig configures out-of-core backing at create time,
// mirroring ssam.Storage.
type StorageConfig struct {
	// Path is the server-local backing file, written at build time.
	// Required for host execution; optional for device execution,
	// where the storage tier is priced analytically.
	Path string `json:"path,omitempty"`
	// BudgetBytes caps resident vector-page bytes (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// Prefetch overlaps the next vault's read with the current scan.
	Prefetch bool `json:"prefetch,omitempty"`
}

// ReplicasConfig configures a replicated region at create time.
type ReplicasConfig struct {
	// Replicas is the number of interchangeable dataset copies. Must
	// be positive.
	Replicas int `json:"replicas"`
	// Hedge enables a second attempt on a different replica once the
	// routed one has been silent for the p99-derived hedge delay.
	Hedge bool `json:"hedge,omitempty"`
	// HedgeMinMs and HedgeMaxMs clamp the adaptive hedge delay
	// (defaults 1ms and 100ms).
	HedgeMinMs float64 `json:"hedge_min_ms,omitempty"`
	HedgeMaxMs float64 `json:"hedge_max_ms,omitempty"`
	// DeadlineMs bounds one query across all its replica attempts; 0
	// disables the deadline.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// ShardingConfig configures a sharded region at create time.
type ShardingConfig struct {
	// Shards is the number of sub-regions the dataset is partitioned
	// across (the paper's composed cubes). Must be positive.
	Shards int `json:"shards"`
	// Partition is "roundrobin" (default) or "hash".
	Partition string `json:"partition,omitempty"`
	// DeadlineMs bounds each shard's time to answer one query fan-out;
	// 0 disables the per-shard deadline.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// HedgeMs, when positive, re-issues a query to a shard that has
	// not answered within this delay (first answer wins).
	HedgeMs float64 `json:"hedge_ms,omitempty"`
	// AllowPartial returns merged results from surviving shards with
	// Degraded set instead of failing the query when shards fail.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// IndexParams mirrors ssam.IndexParams field for field (the server
// converts by direct struct conversion, so the layouts must match).
type IndexParams struct {
	Trees     int `json:"trees,omitempty"`
	Branching int `json:"branching,omitempty"`
	LeafSize  int `json:"leaf_size,omitempty"`
	Tables    int `json:"tables,omitempty"`
	Bits      int `json:"bits,omitempty"`
	Checks    int `json:"checks,omitempty"`
	Probes    int `json:"probes,omitempty"`
	// Graph-mode (HNSW) knobs: per-layer degree bound, build beam, and
	// query-time beam.
	M              int `json:"m,omitempty"`
	EfConstruction int `json:"ef_construction,omitempty"`
	EfSearch       int `json:"ef_search,omitempty"`
	// Quantized-mode (PQ) knobs: codebook training sample size and the
	// exact re-rank depth (M doubles as the subquantizer count).
	Sample int   `json:"sample,omitempty"`
	Rerank int   `json:"rerank,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// CreateRegionRequest allocates a named region (nmalloc + nmode).
type CreateRegionRequest struct {
	Name   string       `json:"name"`
	Dims   int          `json:"dims"`
	Config RegionConfig `json:"config"`
}

// LoadRequest copies vectors into a region (nmemcpy). Append reloads
// accumulate rows instead of replacing the dataset, letting large
// corpora stream in over several requests.
type LoadRequest struct {
	Vectors [][]float32 `json:"vectors"`
	Append  bool        `json:"append,omitempty"`
}

// RegionInfo describes one region in list/get responses.
type RegionInfo struct {
	Name     string       `json:"name"`
	Dims     int          `json:"dims"`
	Len      int          `json:"len"`
	Built    bool         `json:"built"`
	Shards   int          `json:"shards,omitempty"`   // 0 for unsharded regions
	Replicas int          `json:"replicas,omitempty"` // 0 for unreplicated regions
	Gen      uint64       `json:"gen,omitempty"`      // serving generation (replicated regions)
	Config   RegionConfig `json:"config"`
}

// SearchRequest is one query (nwrite_query + nexec); it rides the
// server's micro-batcher.
type SearchRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
}

// Neighbor is one result row (nread_result).
type Neighbor struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

// SearchResponse answers a SearchRequest. The degradation fields are
// only set for sharded regions serving in partial-result mode.
type SearchResponse struct {
	Results []Neighbor `json:"results"`
	// Degraded reports that FailedShards were excluded from the merge.
	Degraded     bool  `json:"degraded,omitempty"`
	FailedShards []int `json:"failed_shards,omitempty"`
	// Hedges counts hedged re-issues this query triggered — shard
	// hedges inside the serving backend plus replica-level hedges for
	// replicated regions.
	Hedges int `json:"hedges,omitempty"`
	// Replica is the replica slot that answered (replicated regions
	// only); Gen the generation it served from; Failovers the replica
	// attempts re-issued after errors.
	Replica   *int   `json:"replica,omitempty"`
	Gen       uint64 `json:"gen,omitempty"`
	Failovers int    `json:"failovers,omitempty"`
	// Trace is the request's sampled span tree, present only when the
	// request carried the X-SSAM-Trace header.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// SearchBatchRequest carries an explicit query batch; it bypasses the
// micro-batcher and maps directly onto Region.SearchBatch.
type SearchBatchRequest struct {
	Queries [][]float32 `json:"queries"`
	K       int         `json:"k"`
}

// SearchBatchResponse answers a SearchBatchRequest, one row per query.
// Degradation is batch-scoped: a failed shard is missing from every
// query's merge.
type SearchBatchResponse struct {
	Results      [][]Neighbor `json:"results"`
	Degraded     bool         `json:"degraded,omitempty"`
	FailedShards []int        `json:"failed_shards,omitempty"`
	Hedges       int          `json:"hedges,omitempty"`
	// Replica/Gen/Failovers mirror SearchResponse for replicated
	// regions (the whole batch is routed to one replica).
	Replica   *int   `json:"replica,omitempty"`
	Gen       uint64 `json:"gen,omitempty"`
	Failovers int    `json:"failovers,omitempty"`
	// Trace is the request's sampled span tree, present only when the
	// request carried the X-SSAM-Trace header.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// UpsertRequest inserts or replaces rows by external id — parallel
// arrays, IDs[i] naming Vectors[i]. Rows with ids already present are
// replaced atomically (each upsert commits one sequence number).
type UpsertRequest struct {
	IDs     []int       `json:"ids"`
	Vectors [][]float32 `json:"vectors"`
}

// DeleteRequest tombstones rows by external id. Absent ids are not an
// error: they are reported back in MutateResponse.Missing and commit no
// sequence number.
type DeleteRequest struct {
	IDs []int `json:"ids"`
}

// MutateResponse answers an upsert or delete. Seq is the region's last
// committed mutation sequence number after the request — strictly
// monotonic per region, so clients can order their writes and readers
// can correlate /statsz and trace generations.
type MutateResponse struct {
	Seq     uint64 `json:"seq"`
	Applied int    `json:"applied"`           // mutations that committed
	Missing []int  `json:"missing,omitempty"` // delete only: ids not present
	Len     int    `json:"len"`               // live rows after the request
	// Trace is the request's sampled span tree, present only when the
	// request carried the X-SSAM-Trace header.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// CompactResponse answers POST /regions/{name}/compact (one synchronous
// compaction pass).
type CompactResponse struct {
	Seq             uint64 `json:"seq"`
	VaultsRewritten int    `json:"vaults_rewritten"`
	Rebalanced      bool   `json:"rebalanced"`
	RowsDropped     int    `json:"rows_dropped"`
	Len             int    `json:"len"`
}

// ReloadResponse answers POST /regions/{name}/reload: a zero-downtime
// generational rebuild of a replicated region from its staged dataset.
type ReloadResponse struct {
	// Gen is the generation now serving; Replicas its copy count.
	Gen      uint64 `json:"gen"`
	Replicas int    `json:"replicas"`
	// Len is the row count of the new generation.
	Len int `json:"len"`
	// BuildMs is how long building and warming the new generation took
	// (the old one served throughout); DrainMs how long the old
	// generation's in-flight queries took to finish after cutover.
	BuildMs float64 `json:"build_ms"`
	DrainMs float64 `json:"drain_ms"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HistogramBucket is one batch-size histogram cell: Count flushes had
// size in (previous bucket's Le, Le].
type HistogramBucket struct {
	Le    int    `json:"le"`
	Count uint64 `json:"count"`
}

// RegionStats is the per-region block of a StatsResponse.
type RegionStats struct {
	Queries      uint64            `json:"queries"`     // single queries served (micro-batched path)
	Batches      uint64            `json:"batches"`     // SearchBatch executions on the region
	QPS          float64           `json:"qps"`         // over the trailing 10s window
	QueueDepth   int               `json:"queue_depth"` // queries waiting in the micro-batcher
	MaxBatchSeen int               `json:"max_batch_seen"`
	BatchSizes   []HistogramBucket `json:"batch_sizes"`
	LatencyP50Ms float64           `json:"latency_p50_ms"` // request latency incl. batching wait
	LatencyP99Ms float64           `json:"latency_p99_ms"`
	// Degraded counts partial-result responses served (sharded
	// regions only).
	Degraded uint64 `json:"degraded,omitempty"`
	// Shards holds per-shard serving stats for sharded regions.
	Shards []ShardStats `json:"shards,omitempty"`
	// Mutation holds write-path counters, present only once the region
	// has taken at least one upsert or delete.
	Mutation *MutationStats `json:"mutation,omitempty"`
	// Replication holds per-replica routing stats for replicated
	// regions.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Quantized holds the PQ engine's work counters, present only for
	// built quantized-mode regions.
	Quantized *QuantizedStats `json:"quantized,omitempty"`
	// Tiered holds the storage tier's cache counters, present only for
	// built storage-backed regions.
	Tiered *TieredStats `json:"tiered,omitempty"`
}

// TieredStats is the storage-tier block of a region's stats:
// cumulative page-cache counters since build.
type TieredStats struct {
	Reads         uint64 `json:"reads"`          // backing-file reads
	BytesRead     uint64 `json:"bytes_read"`     // bytes fetched from the file
	CacheHits     uint64 `json:"cache_hits"`     // page requests served resident
	CacheMisses   uint64 `json:"cache_misses"`   // page requests that went to the file
	Evictions     uint64 `json:"evictions"`      // pages dropped to fit the budget
	PrefetchHits  uint64 `json:"prefetch_hits"`  // hits on pages a prefetch brought in
	Stalls        uint64 `json:"stalls"`         // waits behind another reader's in-flight load
	ResidentBytes int64  `json:"resident_bytes"` // cache residency right now
	BudgetBytes   int64  `json:"budget_bytes"`   // configured cap (0 = unlimited)
}

// QuantizedStats is the quantized-engine block of a region's stats:
// cumulative ADC work counters since build.
type QuantizedStats struct {
	TableBuilds uint64 `json:"table_builds"` // ADC lookup tables built (one per query)
	CodeEvals   uint64 `json:"code_evals"`   // 8-bit code rows scored through the tables
	RerankEvals uint64 `json:"rerank_evals"` // candidates re-scored at full precision
}

// ReplicationStats is the replica-group block of a region's stats.
type ReplicationStats struct {
	Gen   uint64 `json:"gen"`   // serving generation (0 before first build)
	Swaps uint64 `json:"swaps"` // generations installed over the region's lifetime
	// HedgeDelayMs is the current p99-derived replica hedge delay.
	HedgeDelayMs float64        `json:"hedge_delay_ms"`
	Replicas     []ReplicaStats `json:"replicas"`
}

// ReplicaStats is one replica slot's block of a replicated region's
// stats.
type ReplicaStats struct {
	Replica   int    `json:"replica"`
	InFlight  int    `json:"in_flight"`
	Queries   uint64 `json:"queries"` // attempts finished (errors included)
	Errors    uint64 `json:"errors"`
	Hedges    uint64 `json:"hedges"`    // hedge attempts received
	Failovers uint64 `json:"failovers"` // failover attempts received
	// EwmaLatencyMs is the slot's load-score latency estimate.
	EwmaLatencyMs float64 `json:"ewma_latency_ms"`
}

// MutationStats is the write-path block of a region's stats.
type MutationStats struct {
	Seq           uint64  `json:"seq"`       // last committed sequence number
	LiveRows      int     `json:"live_rows"` // surviving rows
	DeadRows      int     `json:"dead_rows"` // tombstones not yet compacted
	Upserts       uint64  `json:"upserts"`
	Deletes       uint64  `json:"deletes"`
	CompactPasses uint64  `json:"compact_passes"`
	VaultRewrites uint64  `json:"vault_rewrites"`
	Rebalances    uint64  `json:"rebalances"`
	GarbageRatio  float64 `json:"garbage_ratio"`
}

// ShardStats is one shard's block of a sharded region's stats.
type ShardStats struct {
	Shard        int     `json:"shard"`
	Len          int     `json:"len"`       // rows resident on the shard
	InFlight     int     `json:"in_flight"` // fan-outs currently executing (depth)
	Queries      uint64  `json:"queries"`
	Failures     uint64  `json:"failures"`
	Timeouts     uint64  `json:"timeouts"`
	Hedges       uint64  `json:"hedges"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
}

// StatsResponse is the /statsz body.
type StatsResponse struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	InFlight      int                    `json:"in_flight"`
	MaxInFlight   int                    `json:"max_in_flight"`
	Rejected      uint64                 `json:"rejected"` // 503s shed by admission control
	Draining      bool                   `json:"draining"`
	ScanKernel    string                 `json:"scan_kernel"` // the exact float scan's kernel on this host: avx2 or go
	Regions       map[string]RegionStats `json:"regions"`
}
