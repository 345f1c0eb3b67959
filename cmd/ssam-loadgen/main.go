// Command ssam-loadgen drives an ssam-serve instance with measurable
// load, the serving-side counterpart of the paper's throughput
// characterization: closed-loop (a fixed worker pool issuing
// back-to-back queries, measuring saturation throughput) or open-loop
// (Poisson arrivals at a target rate, measuring latency under load
// without coordinated omission).
//
//	ssam-loadgen -setup -n 20000 -dims 100 -duration 10s -concurrency 32
//	ssam-loadgen -loop open -rate 2000 -duration 30s -retries 0
//	ssam-loadgen -loop open -rate 500 -upsert-frac 0.05 -delete-frac 0.05
//	ssam-loadgen -replicas 3 -reload-at 3s -fail-on-degraded   # replica group under live reload
//	ssam-loadgen -tenants 16 -zipf 1.3 -slo 20ms               # skewed multi-tenant fleet
//
// -tenants N switches to the multi-tenant scenario: N named regions
// (<region>-0..N-1) driven by zipf-skewed traffic, reporting
// per-tenant p50/p99 and SLO-violation counts. -reload-at issues a
// live zero-downtime reload mid-run (replicated regions);
// -fail-on-degraded turns any degraded/failed response into exit
// code 2, which is what the CI replica smoke asserts on.
//
// With -retries 0, shed load (503) is reported as such instead of
// being retried, making the server's admission control visible.
//
// -upsert-frac/-delete-frac turn the stream into a mixed read/write
// workload against a mutable (unsharded linear) region: that fraction
// of operations become single-row upserts/deletes over a uniform id
// space, reported separately with write p50/p99 and the final
// committed sequence watermark.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ssam/internal/client"
	"ssam/internal/dataset"
	"ssam/internal/obs"
	"ssam/internal/server/wire"
)

// stageNames orders the per-stage latency breakdown: admission wait,
// micro-batcher queue and shared execution (unsharded regions), shard
// fan-out and top-k merge (sharded regions).
var stageNames = []string{"admission", "queue", "exec", "fanout", "merge"}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "server base URL")
	region := flag.String("region", "bench", "region name to query")
	setup := flag.Bool("setup", true, "create/load/build the region before driving load")
	n := flag.Int("n", 20000, "dataset rows for -setup")
	dims := flag.Int("dims", 100, "vector dimensionality for -setup")
	clusters := flag.Int("clusters", 64, "mixture components for -setup")
	mode := flag.String("mode", "linear", "indexing mode for -setup")
	shards := flag.Int("shards", 0, "partition the -setup region across N scatter-gather shards (0 = unsharded)")
	allowPartial := flag.Bool("allow-partial", true, "sharded setup: serve degraded results when shards fail")
	hedge := flag.Duration("hedge", 0, "sharded setup: hedge a shard unanswered after this delay (0 = off)")
	replicas := flag.Int("replicas", 0, "replicate the -setup region across N p2c-routed copies (0 = unreplicated)")
	replicaHedge := flag.Bool("replica-hedge", true, "replicated setup: hedge to a second replica after the p99-derived delay")
	k := flag.Int("k", 6, "neighbors per query")
	loop := flag.String("loop", "closed", "load model: closed (worker pool) or open (Poisson arrivals)")
	concurrency := flag.Int("concurrency", 16, "closed-loop workers / open-loop in-flight cap")
	rate := flag.Float64("rate", 1000, "open-loop target arrival rate (queries/sec)")
	duration := flag.Duration("duration", 10*time.Second, "measurement length")
	retries := flag.Int("retries", 0, "client retry budget on shed load")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	seed := flag.Int64("seed", 1, "query-stream seed")
	traceEvery := flag.Int("trace-every", 0, "force-trace every Nth query (X-SSAM-Trace) and report per-stage latency (0 = off)")
	upsertFrac := flag.Float64("upsert-frac", 0, "fraction of operations issued as single-row upserts (0..1)")
	deleteFrac := flag.Float64("delete-frac", 0, "fraction of operations issued as single-row deletes (0..1)")
	reloadAt := flag.Duration("reload-at", 0, "issue a live POST .../reload this long into the run (0 = off; replicated regions only)")
	failOnDegraded := flag.Bool("fail-on-degraded", false, "exit 2 if any degraded or failed responses (or a failed -reload-at) were observed")
	tenants := flag.Int("tenants", 0, "multi-tenant mode: drive N named regions (<region>-0..N-1) with zipf-skewed traffic")
	zipfS := flag.Float64("zipf", 1.2, "multi-tenant mode: zipf skew exponent s (> 1; higher = more skew)")
	slo := flag.Duration("slo", 50*time.Millisecond, "multi-tenant mode: per-request latency SLO for the violation count")
	flag.Parse()

	if *upsertFrac < 0 || *deleteFrac < 0 || *upsertFrac+*deleteFrac > 1 {
		log.Fatalf("-upsert-frac and -delete-frac must be non-negative and sum to at most 1")
	}
	if *upsertFrac+*deleteFrac > 0 && (*shards > 0 || *mode != "linear") {
		log.Fatalf("write mix needs a mutable region: unsharded, -mode linear (got mode=%s shards=%d)", *mode, *shards)
	}

	c := client.New(*addr, client.WithTimeout(*timeout), client.WithRetries(*retries))
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		log.Fatalf("server not reachable at %s: %v", *addr, err)
	}

	spec := dataset.Spec{
		Name: *region, N: *n, Dim: *dims, NumQueries: 2048, K: *k,
		Clusters: *clusters, ClusterStd: 0.3, Seed: *seed,
	}
	ds := dataset.Generate(spec)

	var sharding *wire.ShardingConfig
	if *shards > 0 {
		sharding = &wire.ShardingConfig{
			Shards:       *shards,
			HedgeMs:      float64(*hedge) / float64(time.Millisecond),
			AllowPartial: *allowPartial,
		}
	}
	var repCfg *wire.ReplicasConfig
	if *replicas > 0 {
		repCfg = &wire.ReplicasConfig{Replicas: *replicas, Hedge: *replicaHedge}
	}

	if *tenants > 0 {
		violations := multiTenant(ctx, c, tenantOptions{
			base: *region, tenants: *tenants, zipfS: *zipfS, slo: *slo,
			setup: *setup, mode: *mode, sharding: sharding, replicas: repCfg,
			k: *k, workers: *concurrency, duration: *duration, seed: *seed,
		}, ds)
		if *failOnDegraded && violations {
			os.Exit(2)
		}
		return
	}

	if *setup {
		if err := setupRegion(ctx, c, *region, ds, *mode, sharding, repCfg); err != nil {
			log.Fatalf("setup: %v", err)
		}
	}

	mix := writeMix{upsert: *upsertFrac, del: *deleteFrac, n: ds.N()}
	if mix.enabled() {
		mix.rows = make([][]float32, ds.N())
		for i := range mix.rows {
			mix.rows[i] = ds.Row(i)
		}
	}

	// A scheduled mid-run reload exercises the zero-downtime swap under
	// exactly the traffic this loadgen is generating.
	var reloadErr chan error
	if *reloadAt > 0 {
		reloadErr = make(chan error, 1)
		go func() {
			time.Sleep(*reloadAt)
			start := time.Now()
			rr, err := c.Reload(ctx, *region)
			if err != nil {
				log.Printf("reload: %v", err)
			} else {
				log.Printf("reload: gen %d live after %v (build %.1fms, drain %.1fms)",
					rr.Gen, time.Since(start).Round(time.Millisecond), rr.BuildMs, rr.DrainMs)
			}
			reloadErr <- err
		}()
	}

	log.Printf("%s-loop against %s/regions/%s: k=%d, %v", *loop, *addr, *region, *k, *duration)
	var res runResult
	switch *loop {
	case "closed":
		res = closedLoop(ctx, c, *region, ds.Queries, *k, *concurrency, *duration, *traceEvery, mix)
	case "open":
		res = openLoop(ctx, c, *region, ds.Queries, *k, *rate, *concurrency, *duration, *seed, *traceEvery, mix)
	default:
		log.Fatalf("unknown -loop %q (want closed or open)", *loop)
	}
	res.report(os.Stdout)

	reloadFailed := false
	if reloadErr != nil {
		if err := <-reloadErr; err != nil {
			reloadFailed = true
		}
	}

	if stats, err := c.Stats(ctx); err == nil {
		if rs, ok := stats.Regions[*region]; ok && rs.Batches > 0 {
			fmt.Printf("server: %d queries in %d batches (avg %.1f, max %d), queue depth %d, server p99 %.2fms\n",
				rs.Queries, rs.Batches, float64(rs.Queries)/float64(rs.Batches),
				rs.MaxBatchSeen, rs.QueueDepth, rs.LatencyP99Ms)
		}
		if rs, ok := stats.Regions[*region]; ok && rs.Mutation != nil {
			m := rs.Mutation
			fmt.Printf("server writes: seq %d, %d live / %d dead rows, %d upserts, %d deletes, %d compactions (%d rewrites, %d rebalances)\n",
				m.Seq, m.LiveRows, m.DeadRows, m.Upserts, m.Deletes,
				m.CompactPasses, m.VaultRewrites, m.Rebalances)
			if res.seqWater > m.Seq {
				fmt.Printf("WARNING: client saw seq %d but server reports %d\n", res.seqWater, m.Seq)
			}
		}
		if rs, ok := stats.Regions[*region]; ok && rs.Replication != nil {
			rep := rs.Replication
			fmt.Printf("server replication: gen %d, %d swaps, hedge delay %.2fms\n",
				rep.Gen, rep.Swaps, rep.HedgeDelayMs)
			for _, r := range rep.Replicas {
				fmt.Printf("  replica %d: %d queries, %d errors, %d hedges, %d failovers, ewma %.2fms\n",
					r.Replica, r.Queries, r.Errors, r.Hedges, r.Failovers, r.EwmaLatencyMs)
			}
		}
	}

	if *failOnDegraded && (res.degraded > 0 || res.failed > 0 || reloadFailed) {
		log.Printf("FAIL: degraded=%d failed=%d reload-failed=%v", res.degraded, res.failed, reloadFailed)
		os.Exit(2)
	}
}

func setupRegion(ctx context.Context, c *client.Client, name string, ds *dataset.Dataset, mode string, sharding *wire.ShardingConfig, replicas *wire.ReplicasConfig) error {
	_, err := c.CreateRegion(ctx, name, ds.Dim(), wire.RegionConfig{Mode: mode, Sharding: sharding, Replicas: replicas})
	var se *client.StatusError
	if errors.As(err, &se) && se.Code == 409 {
		log.Printf("region %q already exists; reloading", name)
	} else if err != nil {
		return err
	}
	rows := make([][]float32, ds.N())
	for i := range rows {
		rows[i] = ds.Row(i)
	}
	const chunk = 20000
	for lo := 0; lo < len(rows); lo += chunk {
		hi := min(lo+chunk, len(rows))
		var err error
		if lo == 0 {
			_, err = c.Load(ctx, name, rows[lo:hi])
		} else {
			_, err = c.LoadAppend(ctx, name, rows[lo:hi])
		}
		if err != nil {
			return err
		}
	}
	start := time.Now()
	if _, err := c.Build(ctx, name); err != nil {
		return err
	}
	log.Printf("built %q: %d x %d in %v", name, ds.N(), ds.Dim(), time.Since(start).Round(time.Millisecond))
	return nil
}

// writeMix configures the read/write operation mix: each operation
// becomes an upsert with probability upsert, a delete with probability
// del, and a search otherwise. Writes target a uniform id in [0, n)
// and upserts carry another dataset row as the replacement payload (a
// same-size steady-state write).
type writeMix struct {
	upsert, del float64
	n           int
	rows        [][]float32
}

func (m writeMix) enabled() bool { return m.upsert+m.del > 0 }

// runResult aggregates one measurement run.
type runResult struct {
	model     string
	elapsed   time.Duration
	attempted uint64
	ok        uint64
	shed      uint64 // ErrOverloaded after the retry budget
	failed    uint64 // any other error
	dropped   uint64 // open loop only: arrivals past the in-flight cap
	degraded  uint64 // 200s flagged Degraded (sharded regions with dead shards)
	latencies []time.Duration
	stages    map[string][]float64 // per-stage durations (us) from sampled traces

	// Write-path outcomes (zero unless a write mix was configured).
	writeOK     uint64
	writeShed   uint64
	writeFailed uint64
	writeLats   []time.Duration
	seqWater    uint64 // highest committed seq observed in responses
}

func (r *runResult) report(w *os.File) {
	fmt.Fprintf(w, "%s loop: %v elapsed\n", r.model, r.elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  attempted %d, ok %d, shed(503) %d, failed %d", r.attempted, r.ok, r.shed, r.failed)
	if r.dropped > 0 {
		fmt.Fprintf(w, ", dropped-at-client %d", r.dropped)
	}
	if r.degraded > 0 {
		fmt.Fprintf(w, ", degraded %d", r.degraded)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  throughput %.1f ok-queries/sec\n", float64(r.ok)/r.elapsed.Seconds())
	if r.writeOK+r.writeShed+r.writeFailed > 0 {
		fmt.Fprintf(w, "  writes: ok %d, shed(503) %d, failed %d, %.1f ok-writes/sec, seq watermark %d\n",
			r.writeOK, r.writeShed, r.writeFailed,
			float64(r.writeOK)/r.elapsed.Seconds(), r.seqWater)
		if len(r.writeLats) > 0 {
			sort.Slice(r.writeLats, func(i, j int) bool { return r.writeLats[i] < r.writeLats[j] })
			wp := func(p float64) time.Duration {
				return r.writeLats[int(p*float64(len(r.writeLats)-1))]
			}
			fmt.Fprintf(w, "  write latency p50 %v  p99 %v  max %v\n",
				wp(0.50).Round(time.Microsecond), wp(0.99).Round(time.Microsecond),
				r.writeLats[len(r.writeLats)-1].Round(time.Microsecond))
		}
	}
	if len(r.latencies) == 0 {
		return
	}
	sort.Slice(r.latencies, func(i, j int) bool { return r.latencies[i] < r.latencies[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(r.latencies)-1))
		return r.latencies[i]
	}
	fmt.Fprintf(w, "  latency p50 %v  p90 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), r.latencies[len(r.latencies)-1].Round(time.Microsecond))
	if len(r.stages) > 0 {
		fmt.Fprintf(w, "  stage breakdown from sampled traces:\n")
		for _, stage := range stageNames {
			ds := r.stages[stage]
			if len(ds) == 0 {
				continue
			}
			sort.Float64s(ds)
			p50 := ds[len(ds)/2]
			p99 := ds[min(len(ds)-1, len(ds)*99/100)]
			fmt.Fprintf(w, "    %-9s n=%-5d p50 %8.1fus  p99 %8.1fus\n", stage, len(ds), p50, p99)
		}
	}
}

// collector accumulates outcomes from concurrent issuers.
type collector struct {
	mu        sync.Mutex
	latencies []time.Duration
	writeLats []time.Duration
	stages    map[string][]float64
	ok        atomic.Uint64
	shed      atomic.Uint64
	failed    atomic.Uint64
	degraded  atomic.Uint64
	wok       atomic.Uint64
	wshed     atomic.Uint64
	wfailed   atomic.Uint64
	seq       atomic.Uint64 // max committed seq seen in write responses
}

func (col *collector) observe(resp wire.SearchResponse, err error, lat time.Duration) {
	switch {
	case err == nil:
		col.ok.Add(1)
		if resp.Degraded {
			col.degraded.Add(1)
		}
		col.mu.Lock()
		col.latencies = append(col.latencies, lat)
		col.mu.Unlock()
		if resp.Trace != nil {
			col.observeTrace(resp.Trace)
		}
	case errors.Is(err, client.ErrOverloaded):
		col.shed.Add(1)
	default:
		col.failed.Add(1)
	}
}

// observeWrite accounts one upsert/delete outcome. The seq watermark
// keeps the highest committed sequence number any response reported —
// with all writes flowing through this loadgen, a store whose final
// /statsz seq matches the watermark lost none of them.
func (col *collector) observeWrite(resp wire.MutateResponse, err error, lat time.Duration) {
	switch {
	case err == nil:
		col.wok.Add(1)
		for {
			cur := col.seq.Load()
			if resp.Seq <= cur || col.seq.CompareAndSwap(cur, resp.Seq) {
				break
			}
		}
		col.mu.Lock()
		col.writeLats = append(col.writeLats, lat)
		col.mu.Unlock()
	case errors.Is(err, client.ErrOverloaded):
		col.wshed.Add(1)
	default:
		col.wfailed.Add(1)
	}
}

// issueWrite sends one write per the mix: an upsert of a random row's
// content under a random id, or a delete of a random id (misses are
// fine — they commit nothing and come back in Missing).
func issueWrite(ctx context.Context, c *client.Client, region string, mix writeMix, isUpsert bool, col *collector) {
	start := time.Now()
	var resp wire.MutateResponse
	var err error
	if isUpsert {
		id := rand.Intn(mix.n)
		resp, err = c.Upsert(ctx, region, []int{id}, [][]float32{mix.rows[rand.Intn(mix.n)]})
	} else {
		resp, err = c.Delete(ctx, region, []int{rand.Intn(mix.n)})
	}
	col.observeWrite(resp, err, time.Since(start))
}

// observeTrace harvests per-stage durations from one sampled span
// tree: the admission wait off the root, then the batch span's direct
// children — queue/exec when a batch of one rides the micro-batcher,
// exec alone when a longer batch bypasses it, fanout/merge on a
// sharded region.
func (col *collector) observeTrace(td *obs.TraceData) {
	if td.Root == nil {
		return
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if col.stages == nil {
		col.stages = make(map[string][]float64)
	}
	if a := td.Root.Find("admission"); a != nil {
		col.stages["admission"] = append(col.stages["admission"], a.DurUs)
	}
	if b := td.Root.Find("batch"); b != nil {
		for _, ch := range b.Children {
			switch ch.Stage {
			case "queue", "exec", "fanout", "merge":
				col.stages[ch.Stage] = append(col.stages[ch.Stage], ch.DurUs)
			}
		}
	}
}

// closedLoop runs workers back to back: measures saturation
// throughput at a fixed multiprogramming level.
func closedLoop(ctx context.Context, c *client.Client, region string, queries [][]float32, k, workers int, d time.Duration, traceEvery int, mix writeMix) runResult {
	var col collector
	var attempted atomic.Uint64
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i++ {
				attempted.Add(1)
				u := 0.0
				if mix.enabled() {
					u = rand.Float64()
				}
				if u < mix.upsert {
					issueWrite(ctx, c, region, mix, true, &col)
					continue
				}
				if u < mix.upsert+mix.del {
					issueWrite(ctx, c, region, mix, false, &col)
					continue
				}
				qStart := time.Now()
				q := queries[i%len(queries)]
				var resp wire.SearchResponse
				var err error
				if traceEvery > 0 && i%traceEvery == 0 {
					resp, err = c.SearchTraced(ctx, region, q, k)
				} else {
					resp, err = c.SearchFull(ctx, region, q, k)
				}
				col.observe(resp, err, time.Since(qStart))
			}
		}(w)
	}
	wg.Wait()
	return runResult{
		model: "closed", elapsed: time.Since(start),
		attempted: attempted.Load(), ok: col.ok.Load(), shed: col.shed.Load(),
		failed: col.failed.Load(), degraded: col.degraded.Load(),
		latencies: col.latencies, stages: col.stages,
		writeOK: col.wok.Load(), writeShed: col.wshed.Load(),
		writeFailed: col.wfailed.Load(), writeLats: col.writeLats,
		seqWater: col.seq.Load(),
	}
}

// openLoop issues arrivals on a Poisson process at the target rate,
// regardless of completions (no coordinated omission); a bounded
// in-flight cap keeps a melting server from exhausting the client.
func openLoop(ctx context.Context, c *client.Client, region string, queries [][]float32, k int, rate float64, maxInFlight int, d time.Duration, seed int64, traceEvery int, mix writeMix) runResult {
	var col collector
	var attempted, dropped atomic.Uint64
	rng := rand.New(rand.NewSource(seed))
	inflight := make(chan struct{}, maxInFlight)
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		// Exponential inter-arrival → Poisson process.
		wait := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		now := time.Now()
		if now.Add(wait).After(deadline) {
			break
		}
		time.Sleep(wait)
		select {
		case inflight <- struct{}{}:
		default:
			dropped.Add(1)
			continue
		}
		attempted.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-inflight }()
			u := 0.0
			if mix.enabled() {
				u = rand.Float64()
			}
			if u < mix.upsert+mix.del {
				issueWrite(ctx, c, region, mix, u < mix.upsert, &col)
				return
			}
			qStart := time.Now()
			q := queries[i%len(queries)]
			var resp wire.SearchResponse
			var err error
			if traceEvery > 0 && i%traceEvery == 0 {
				resp, err = c.SearchTraced(ctx, region, q, k)
			} else {
				resp, err = c.SearchFull(ctx, region, q, k)
			}
			col.observe(resp, err, time.Since(qStart))
		}(i)
	}
	wg.Wait()
	return runResult{
		model: "open", elapsed: time.Since(start),
		attempted: attempted.Load(), ok: col.ok.Load(), shed: col.shed.Load(),
		failed: col.failed.Load(), dropped: dropped.Load(),
		degraded: col.degraded.Load(), latencies: col.latencies, stages: col.stages,
		writeOK: col.wok.Load(), writeShed: col.wshed.Load(),
		writeFailed: col.wfailed.Load(), writeLats: col.writeLats,
		seqWater: col.seq.Load(),
	}
}
