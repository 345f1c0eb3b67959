package server

import (
	"sort"
	"sync"
	"time"

	"ssam/internal/obs"
	"ssam/internal/server/wire"
)

// histLes are the batch-size histogram bucket upper bounds; sizes
// above the last bound land in a final +inf bucket. The same bounds
// back the /statsz batch_sizes array and the Prometheus
// ssam_region_batch_size histogram.
var histLes = [...]int{1, 2, 4, 8, 16, 32, 64}

// latencyBounds are the request-latency buckets, in seconds, of
// ssam_region_latency_seconds (sub-millisecond through seconds: the
// micro-batched fast path sits in the first buckets, shard deadline
// and hedge pathologies in the tail).
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

const (
	latencySamples = 2048 // sliding latency reservoir per region
	qpsWindow      = 10   // seconds of trailing QPS window
	qpsSlots       = 16   // per-second ring (> qpsWindow to tolerate skew)
)

// regionStats accumulates per-region serving metrics. The counters and
// histograms are obs registry series, so /statsz and /metrics report
// from the same accumulators and can never disagree; the mutex guards
// only what Prometheus has no vocabulary for — the trailing-window QPS
// ring and the exact-percentile latency reservoir /statsz reports.
type regionStats struct {
	queries     *obs.Counter   // ssam_region_queries_total
	batches     *obs.Counter   // ssam_region_batches_total
	degraded    *obs.Counter   // ssam_region_degraded_total
	writes      *obs.Counter   // ssam_region_writes_total
	compactions *obs.Counter   // ssam_region_compactions_total
	batchSize   *obs.Histogram // ssam_region_batch_size
	queueWait   *obs.Histogram // ssam_region_queue_seconds
	latency     *obs.Histogram // ssam_region_latency_seconds

	mu       sync.Mutex
	maxBatch int

	lat    [latencySamples]float64 // milliseconds, ring
	latIdx int
	latN   int

	secSlot  [qpsSlots]int64 // unix second owning each slot
	secCount [qpsSlots]uint64
}

// newRegionStats registers the region's metric series (labeled
// region=<name>) and returns the accumulator. The series live until
// the registry drops them via Unregister on region free.
func newRegionStats(reg *obs.Registry, region string) *regionStats {
	lbl := obs.Labels{"region": region}
	sizeBounds := make([]float64, len(histLes))
	for i, le := range histLes {
		sizeBounds[i] = float64(le)
	}
	return &regionStats{
		queries:     reg.Counter("ssam_region_queries_total", "Queries served, per region.", lbl),
		batches:     reg.Counter("ssam_region_batches_total", "Batch executions, per region.", lbl),
		degraded:    reg.Counter("ssam_region_degraded_total", "Partial-result (degraded) responses, per region.", lbl),
		writes:      reg.Counter("ssam_region_writes_total", "Committed upserts and deletes, per region.", lbl),
		compactions: reg.Counter("ssam_region_compactions_total", "Layout-changing compaction passes, per region.", lbl),
		batchSize:   reg.Histogram("ssam_region_batch_size", "Executed batch sizes, per region.", lbl, sizeBounds),
		queueWait:   reg.Histogram("ssam_region_queue_seconds", "Longest micro-batcher queue wait of each executed batch, per region: near zero when a core was free, an engine call when none was.", lbl, latencyBounds),
		latency:     reg.Histogram("ssam_region_latency_seconds", "Request latency including any micro-batcher queue wait, per region.", lbl, latencyBounds),
	}
}

// recordQueries accounts n served queries sharing one observed
// request latency (n == 1 for the micro-batched single-query path; n
// == batch size for explicit batch requests).
func (s *regionStats) recordQueries(n int, lat time.Duration) {
	s.queries.Add(uint64(n))
	s.latency.Observe(lat.Seconds())
	now := time.Now().Unix()
	ms := float64(lat) / float64(time.Millisecond)
	s.mu.Lock()
	slot := now % qpsSlots
	if s.secSlot[slot] != now {
		s.secSlot[slot] = now
		s.secCount[slot] = 0
	}
	s.secCount[slot] += uint64(n)
	s.lat[s.latIdx] = ms
	s.latIdx = (s.latIdx + 1) % latencySamples
	if s.latN < latencySamples {
		s.latN++
	}
	s.mu.Unlock()
}

// recordDegraded accounts one partial-result (degraded) response.
func (s *regionStats) recordDegraded() {
	s.degraded.Inc()
}

// recordWrites accounts n committed mutations (upserted rows or hit
// deletes) from one write request.
func (s *regionStats) recordWrites(n int) {
	s.writes.Add(uint64(n))
}

// recordCompaction accounts one layout-changing compaction pass; runs
// on the compactor goroutine via the region's compact hook.
func (s *regionStats) recordCompaction() {
	s.compactions.Inc()
}

// recordBatch accounts one executed batch of the given size.
func (s *regionStats) recordBatch(size int) {
	s.batches.Inc()
	s.batchSize.Observe(float64(size))
	s.mu.Lock()
	if size > s.maxBatch {
		s.maxBatch = size
	}
	s.mu.Unlock()
}

// snapshot renders the wire view. queueDepth is sampled by the caller
// (it lives in the batcher, not here).
func (s *regionStats) snapshot(queueDepth int) wire.RegionStats {
	now := time.Now().Unix()

	cells := s.batchSize.BucketCounts()
	buckets := make([]wire.HistogramBucket, 0, len(cells))
	for i, le := range histLes {
		buckets = append(buckets, wire.HistogramBucket{Le: le, Count: cells[i]})
	}
	buckets = append(buckets, wire.HistogramBucket{Le: -1, Count: cells[len(histLes)]})

	s.mu.Lock()
	defer s.mu.Unlock()

	var recent uint64
	for i := range s.secSlot {
		if age := now - s.secSlot[i]; age >= 0 && age < qpsWindow {
			recent += s.secCount[i]
		}
	}

	p50, p99 := 0.0, 0.0
	if s.latN > 0 {
		sample := make([]float64, s.latN)
		copy(sample, s.lat[:s.latN])
		sort.Float64s(sample)
		p50 = sample[s.latN/2]
		p99 = sample[min(s.latN-1, s.latN*99/100)]
	}

	return wire.RegionStats{
		Queries:      s.queries.Value(),
		Batches:      s.batches.Value(),
		Degraded:     s.degraded.Value(),
		QPS:          float64(recent) / qpsWindow,
		QueueDepth:   queueDepth,
		MaxBatchSeen: s.maxBatch,
		BatchSizes:   buckets,
		LatencyP50Ms: p50,
		LatencyP99Ms: p99,
	}
}
