package server

// This file is the Prometheus wiring: which obs registry series the
// server exposes at /metrics and how they map onto existing serving
// state. Counters and histograms that the request path increments
// live in regionStats (stats.go); everything here is callback-backed
// — sampled at scrape time from state the server already maintains —
// so /metrics and /statsz always agree.

import (
	"net/http"
	"strconv"
	"time"

	"ssam"
	"ssam/internal/obs"
)

// registerServerMetrics registers the server-scoped (unlabeled)
// series. Called once from New.
func (s *Server) registerServerMetrics() {
	reg := s.registry
	reg.GaugeFunc("ssam_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("ssam_inflight", "Search requests currently admitted.", nil,
		func() float64 { return float64(len(s.sem)) })
	reg.GaugeFunc("ssam_inflight_max", "Admission budget (requests shed beyond it).", nil,
		func() float64 { return float64(s.opts.MaxInFlight) })
	reg.CounterFunc("ssam_rejected_total", "Search requests shed with 503.", nil,
		func() uint64 { return s.rejected.Load() })
	reg.GaugeFunc("ssam_scan_kernel", "Always 1; the label names the exact float scan's kernel on this host (avx2 or go).",
		obs.Labels{"kernel": ssam.ScanKernel()}, func() float64 { return 1 })
	reg.GaugeFunc("ssam_draining", "1 while the server is draining, else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
}

// registerRegionMetrics registers the entry's callback-backed region
// series: queue depth (batcher backlog plus shard in-flight), and for
// sharded regions one series per shard over the cluster's atomic
// counters. Called from handleCreate after the dup check, so a
// rejected duplicate never registers anything; the matching
// Unregister runs on free and Close.
func (s *Server) registerRegionMetrics(e *regionEntry) {
	lbl := obs.Labels{"region": e.name}
	s.registry.GaugeFunc("ssam_region_queue_depth",
		"Queries waiting in the micro-batcher plus shard fan-outs in flight, per region.", lbl,
		func() float64 { return float64(e.be.Pending()) })
	// The per-kind series are different instruments, registered per kind.
	// The backend is fixed for the entry's lifetime and the callbacks
	// read atomics or lock-free snapshots, so they skip e.mu; Unregister
	// precedes Free, so no scrape outlives the backend.
	switch grp := e.be.(type) {
	case *groupBackend:
		// Replicated regions: generation/swap gauges plus one series set
		// per replica slot.
		s.registry.GaugeFunc("ssam_region_gen",
			"Serving generation of the replica group (0 before first build).", lbl,
			func() float64 { return float64(grp.Gen()) })
		s.registry.CounterFunc("ssam_region_swaps_total",
			"Generations installed (build + reloads), per region.", lbl,
			func() uint64 { return grp.Stats().Swaps })
		s.registry.GaugeFunc("ssam_region_hedge_delay_seconds",
			"Current p99-derived replica hedge delay.", lbl,
			func() float64 { return grp.HedgeDelay().Seconds() })
		for ri := 0; ri < grp.Replicas(); ri++ {
			ri := ri
			rlbl := obs.Labels{"region": e.name, "replica": strconv.Itoa(ri)}
			s.registry.GaugeFunc("ssam_replica_inflight", "Attempts currently executing per replica.", rlbl,
				func() float64 { return float64(grp.Stat(ri).InFlight) })
			s.registry.CounterFunc("ssam_replica_queries_total", "Attempts finished per replica (errors included).", rlbl,
				func() uint64 { return grp.Stat(ri).Queries })
			s.registry.CounterFunc("ssam_replica_errors_total", "Errored attempts per replica.", rlbl,
				func() uint64 { return grp.Stat(ri).Errors })
			s.registry.CounterFunc("ssam_replica_hedges_total", "Hedged attempts received per replica.", rlbl,
				func() uint64 { return grp.Stat(ri).Hedges })
			s.registry.CounterFunc("ssam_replica_failovers_total", "Failover attempts received per replica.", rlbl,
				func() uint64 { return grp.Stat(ri).Failovers })
			s.registry.GaugeFunc("ssam_replica_latency_ewma_seconds", "EWMA attempt latency per replica (the routing load score input).", rlbl,
				func() float64 { return grp.Stat(ri).EwmaLatency.Seconds() })
		}
	case *regionBackend:
		// Write-path series for mutable (unsharded) regions.
		// MutationStats is lock-free (all zeros until the first write,
		// and again after Free detaches the store).
		region := grp.Region
		if e.cfg.Mode == ssam.Quantized {
			// Quantized regions: ADC work counters. All zeros until the
			// index is built (QuantizedStats reports ok=false before the
			// engine exists).
			qst := func() ssam.QuantizedCounters { st, _ := region.QuantizedStats(); return st }
			s.registry.CounterFunc("ssam_pq_table_builds_total",
				"ADC lookup tables built (one per query), per region.", lbl,
				func() uint64 { return qst().TableBuilds })
			s.registry.CounterFunc("ssam_pq_code_evals_total",
				"8-bit code rows scored through ADC tables, per region.", lbl,
				func() uint64 { return qst().CodeEvals })
			s.registry.CounterFunc("ssam_pq_rerank_evals_total",
				"ADC candidates re-scored at full precision, per region.", lbl,
				func() uint64 { return qst().RerankEvals })
		}
		if e.cfg.Storage != nil {
			// Storage-backed regions: page-cache counters. All zeros until
			// the index is built (TieredStats reports ok=false before the
			// store exists).
			tst := func() ssam.TieredCounters { st, _ := region.TieredStats(); return st }
			s.registry.CounterFunc("ssam_tier_reads_total",
				"Backing-file reads, per region.", lbl,
				func() uint64 { return tst().Reads })
			s.registry.CounterFunc("ssam_tier_bytes_read_total",
				"Bytes fetched from the backing file, per region.", lbl,
				func() uint64 { return tst().BytesRead })
			s.registry.CounterFunc("ssam_tier_cache_hits_total",
				"Vector-page requests served from the resident cache, per region.", lbl,
				func() uint64 { return tst().CacheHits })
			s.registry.CounterFunc("ssam_tier_cache_misses_total",
				"Vector-page requests that went to the backing file, per region.", lbl,
				func() uint64 { return tst().CacheMisses })
			s.registry.CounterFunc("ssam_tier_evictions_total",
				"Vector pages evicted to fit the memory budget, per region.", lbl,
				func() uint64 { return tst().Evictions })
			s.registry.CounterFunc("ssam_tier_prefetch_hits_total",
				"Cache hits on pages a prefetch brought in, per region.", lbl,
				func() uint64 { return tst().PrefetchHits })
			s.registry.CounterFunc("ssam_tier_stalls_total",
				"Waits behind another reader's in-flight page load, per region.", lbl,
				func() uint64 { return tst().Stalls })
			s.registry.GaugeFunc("ssam_tier_resident_bytes",
				"Vector-page bytes currently resident, per region.", lbl,
				func() float64 { return float64(tst().ResidentBytes) })
		}
		mst := func() ssam.MutationStats { st, _ := region.MutationStats(); return st }
		s.registry.GaugeFunc("ssam_region_mutation_seq",
			"Last committed mutation sequence number, per region.", lbl,
			func() float64 { return float64(mst().Seq) })
		s.registry.GaugeFunc("ssam_region_live_rows",
			"Surviving rows in the mutable store, per region.", lbl,
			func() float64 { return float64(mst().Live) })
		s.registry.GaugeFunc("ssam_region_dead_rows",
			"Tombstoned rows awaiting compaction, per region.", lbl,
			func() float64 { return float64(mst().Dead) })
		s.registry.GaugeFunc("ssam_region_garbage_ratio",
			"Tombstone fraction of physical rows, per region.", lbl,
			func() float64 { return mst().GarbageRatio })
		s.registry.CounterFunc("ssam_region_upserts_total", "Committed upserts, per region.", lbl,
			func() uint64 { return mst().Upserts })
		s.registry.CounterFunc("ssam_region_deletes_total", "Committed deletes, per region.", lbl,
			func() uint64 { return mst().Deletes })
		s.registry.CounterFunc("ssam_region_compact_passes_total",
			"Compaction passes run (including no-ops), per region.", lbl,
			func() uint64 { return mst().CompactPasses })
	case *clusterBackend:
		// Sharded regions: one series set per shard over the cluster's
		// atomic counters.
		cl := grp
		for si := 0; si < cl.Shards(); si++ {
			si := si
			slbl := obs.Labels{"region": e.name, "shard": strconv.Itoa(si)}
			s.registry.CounterFunc("ssam_shard_queries_total", "Fan-outs served per shard (failed included).", slbl,
				func() uint64 { return cl.ShardStat(si).Queries })
			s.registry.CounterFunc("ssam_shard_failures_total", "Errored fan-outs per shard (timeouts included).", slbl,
				func() uint64 { return cl.ShardStat(si).Failures })
			s.registry.CounterFunc("ssam_shard_timeouts_total", "Fan-outs that missed the shard deadline.", slbl,
				func() uint64 { return cl.ShardStat(si).Timeouts })
			s.registry.CounterFunc("ssam_shard_hedges_total", "Hedged re-issues launched per shard.", slbl,
				func() uint64 { return cl.ShardStat(si).Hedges })
			s.registry.GaugeFunc("ssam_shard_inflight", "Fan-outs currently executing per shard.", slbl,
				func() float64 { return float64(cl.ShardStat(si).InFlight) })
		}
	}
}

// handleMetrics serves the registry in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.registry.WritePrometheus(w)
}

// handleTracez serves the tracer's retained traces, newest first.
func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.tracer.Snapshot())
}
