package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"ssam"
	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/pq"
	"ssam/internal/server/batcher"
	"ssam/internal/server/wire"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// runTraced is the run every per-layer number comes from. None of its
// timings feed an end-to-end metric:
//
//	generate -> setup -> untraced windows -> traced windows
//	         -> oracle + verification -> free -> layer probes
//
// The untraced windows give the runtime counters, the tail latencies
// and the untraced median the tracing overhead is taken against; the
// traced windows give the span tree of every request; the probes time
// calls into each layer's public functions on the workload's own data,
// one caller, nothing else running.
func runTraced(ctx context.Context, run runConfig) (*result, error) {
	in := generate(run.sc, run.seed)
	// Six tenths of the budget is load; the probes take the rest.
	count, length := windowPlan(run.measure*6/10, run.sc.Window)
	res := newResult(newEnvelope(run, true, count, length, in))

	h, err := newHarness(run, in, true)
	if err != nil {
		return nil, err
	}
	defer h.close()
	const region = "spine-traced"
	if _, err := h.setup(ctx, region); err != nil {
		return nil, err
	}

	before := readUsage()
	plain := h.runPhase(ctx, phase{region: region, index: 0, warmup: run.sc.Warmup, window: length, count: count / 2})
	used := readUsage().since(before)
	traced := h.runPhase(ctx, phase{region: region, index: 1, warmup: run.sc.Warmup / 3, window: length, count: count / 2, traced: true})
	for i := range traced.windows {
		traced.windows[i].Traced = true
	}
	res.Windows = append(plain.windows, traced.windows...)
	res.tally(plain.attempted, plain.failed, plain.firstErr)
	res.tally(traced.attempted, traced.failed, traced.firstErr)

	stats, err := h.cl.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}

	// Correctness is held to the same bar as in the untraced run. The
	// second phase wrote after the first, so its models replay last.
	h.checkAgainstOracle(ctx, region, append(plain.models, traced.models...), res)
	if err := h.cl.Free(ctx, region); err != nil {
		return nil, fmt.Errorf("free %s: %w", region, err)
	}

	load := summarize(plain.windows)
	spans := reduceSpans(traced.spans)
	if spans.Requests == 0 {
		res.incorrect(fmt.Errorf("traced phase recorded no request spans"))
	}
	p := &prober{run: run, in: in, h: h, res: res}
	p.client(ctx, spans)
	p.wire()
	if err := p.server(ctx, spans); err != nil {
		return nil, err
	}
	p.batcher(ctx, spans)
	served := stats.Regions[region]
	if err := p.regionAndKNN(spans, served); err != nil {
		return nil, err
	}
	p.vec()
	p.topk()
	if err := p.pq(served.Quantized); err != nil {
		return nil, err
	}
	if err := p.mutate(load, served.Mutation); err != nil {
		return nil, err
	}
	p.obs(load, summarize(traced.windows))
	p.runtime(used, plain.attempted)
	p.loadgen(load)
	return res, nil
}

// prober times calls into each layer's public functions. Each method
// sets the metrics of one layer, from the traced spans where the layer
// shows up in a request and from a direct probe where it does not.
type prober struct {
	run runConfig
	in  *inputs
	h   *harness
	res *result
}

// medianMs times fn reps times, one call at a time, and returns the
// median in milliseconds.
func medianMs(reps int, fn func(i int)) float64 {
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		fn(i)
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(ms)
}

func (p *prober) query(i int) []float32 { return p.in.queries[i%len(p.in.queries)] }

func (p *prober) client(ctx context.Context, s spanStats) {
	p.res.set("client.encode_us", s.EncodeUs, "us")
	p.res.set("client.decode_us", s.DecodeUs, "us")
	p.res.set("client.transport_us", s.TransportUs, "us")
	p.res.Counts["client.encode_us"] = s.Requests
	floor := medianMs(200, func(int) {
		if err := p.h.cl.Health(ctx); err != nil {
			p.res.incorrect(fmt.Errorf("healthz: %w", err))
		}
	})
	p.res.set("client.rtt_floor_us", floor*1e3, "us")
}

func (p *prober) wire() {
	k := p.run.sc.K
	body, _ := json.Marshal(wire.SearchRequest{Query: p.query(0), K: k})
	p.res.set("wire.decode_search_us", 1e3*medianMs(200, func(int) {
		if _, err := wire.DecodeSearch(body); err != nil {
			p.res.incorrect(err)
		}
	}), "us")

	resp := wire.SearchResponse{Results: make([]wire.Neighbor, k)}
	for i := range resp.Results {
		resp.Results[i] = wire.Neighbor{ID: 1000 * i, Distance: 1.0 / float64(i+3)}
	}
	p.res.set("wire.encode_response_us", 1e3*medianMs(200, func(int) {
		if _, err := json.Marshal(resp); err != nil {
			p.res.incorrect(err)
		}
	}), "us")

	chunk := make([][]float32, min(p.run.sc.Chunk, p.run.sc.N))
	for i := range chunk {
		chunk[i] = p.in.row(i)
	}
	load, _ := json.Marshal(wire.LoadRequest{Vectors: chunk, Append: true})
	best := bestOf(3, func() {
		if _, err := wire.DecodeLoad(load); err != nil {
			p.res.incorrect(err)
		}
	})
	p.res.set("wire.decode_load_mb_s", float64(len(load))/1e6/best.Seconds(), "MB/s")
}

// server reports the handler's own time from the traces and the
// latency floor of the whole serving path: a search on a one-row
// region, where the engine does nothing.
func (p *prober) server(ctx context.Context, s spanStats) error {
	p.res.set("server.self_ms", s.ServerSelfMs, "ms")
	p.res.set("server.admission_ms", s.AdmissionMs, "ms")
	const name = "spine-floor"
	cl := p.h.cl
	if _, err := cl.CreateRegion(ctx, name, p.run.sc.Dims, linearCfg); err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	if _, err := cl.LoadAppend(ctx, name, [][]float32{p.in.row(0)}); err != nil {
		return fmt.Errorf("load %s: %w", name, err)
	}
	if _, err := cl.Build(ctx, name); err != nil {
		return fmt.Errorf("build %s: %w", name, err)
	}
	p.res.set("server.search_floor_ms", medianMs(100, func(i int) {
		if _, err := cl.Search(ctx, name, p.query(i), 1); err != nil {
			p.res.incorrect(fmt.Errorf("floor search: %w", err))
		}
	}), "ms")
	return cl.Free(ctx, name)
}

// batcher reports the queue wait and batch size the traces saw, and
// what one lone caller waits on a batcher whose search does nothing:
// the window itself.
func (p *prober) batcher(ctx context.Context, s spanStats) {
	p.res.set("batcher.queue_ms", s.QueueMs, "ms")
	p.res.set("batcher.batch_size_mean", s.BatchSizeMean, "count")
	p.res.set("batcher.self_ms", s.BatcherSelfMs, "ms")
	b := batcher.New(func(qs [][]float32, _ int, _ *obs.Span) ([][]ssam.Result, error) {
		return make([][]ssam.Result, len(qs)), nil
	}, batcher.Options{})
	defer b.Close()
	p.res.set("batcher.solo_wait_ms", medianMs(50, func(i int) {
		if _, err := b.Search(ctx, p.query(i), p.run.sc.K); err != nil {
			p.res.incorrect(fmt.Errorf("batcher probe: %w", err))
		}
	}), "ms")
}

// regionConfig converts the wire form the way the server does.
func regionConfig(wc wire.RegionConfig) (ssam.Config, error) {
	var cfg ssam.Config
	var err error
	if cfg.Metric, err = ssam.ParseMetric(wc.Metric); err != nil {
		return cfg, err
	}
	if cfg.Mode, err = ssam.ParseMode(wc.Mode); err != nil {
		return cfg, err
	}
	if cfg.Execution, err = ssam.ParseExecution(wc.Execution); err != nil {
		return cfg, err
	}
	cfg.Index = ssam.IndexParams(wc.Index)
	return cfg, nil
}

// regionAndKNN times the workload's region with no HTTP in the way
// (the gap to lat_p50_ms is serving overhead) and the exact-scan engine
// under it, one query at a time and as a 16-query batch.
func (p *prober) regionAndKNN(s spanStats, served wire.RegionStats) error {
	sc := p.run.sc
	cfg, err := regionConfig(p.run.w.cfg)
	if err != nil {
		return err
	}
	r, err := ssam.New(sc.Dims, cfg)
	if err != nil {
		return fmt.Errorf("probe region: %w", err)
	}
	defer r.Free()
	if err := r.LoadFloat32(p.in.data); err != nil {
		return fmt.Errorf("probe region load: %w", err)
	}
	if err := r.BuildIndex(); err != nil {
		return fmt.Errorf("probe region build: %w", err)
	}
	p.res.set("region.direct_search_ms", medianMs(100, func(i int) {
		if _, err := r.Search(p.query(i), sc.K); err != nil {
			p.res.incorrect(fmt.Errorf("probe region search: %w", err))
		}
	}), "ms")
	p.res.set("region.exec_ms", s.RegionExecMs, "ms")
	p.res.set("region.exec_self_ms", s.RegionSelfMs, "ms")

	if p.run.w.mutates() {
		// The same region after its first writes: every search now goes
		// through the mutable store's snapshot and tombstones.
		st := newOpStream(p.run.w, sc, p.run.seed, 2, 0, 1)
		for writes := 0; writes < 1000; {
			var werr error
			switch o := st.next(); o.kind {
			case opUpsert:
				_, werr = r.Upsert(o.id, p.in.pool[o.pool])
			case opDelete:
				_, _, werr = r.Delete(o.id)
			default:
				continue
			}
			if werr != nil {
				return fmt.Errorf("probe region write: %w", werr)
			}
			writes++
		}
		p.res.set("mutate.search_ms", medianMs(100, func(i int) {
			if _, err := r.Search(p.query(i), sc.K); err != nil {
				p.res.incorrect(fmt.Errorf("probe mutable search: %w", err))
			}
		}), "ms")
	} else {
		p.res.set("mutate.search_ms", 0, "ms")
	}

	e := knn.NewEngine(p.in.data, sc.Dims, vec.Euclidean, 0)
	var st knn.Stats
	p.res.set("knn.search_ms", medianMs(100, func(i int) {
		_, st = e.SearchStats(p.query(i), sc.K)
	}), "ms")
	batch := make([][]float32, 16)
	p.res.set("knn.batch16_ms", medianMs(10, func(i int) {
		for j := range batch {
			batch[j] = p.query(16*i + j)
		}
		e.SearchBatch(batch, sc.K)
	}), "ms")
	p.res.set("knn.vault_ms_max", s.VaultMaxMs, "ms")
	p.res.set("knn.vault_skew", s.VaultSkew, "ratio")
	// Full-precision distance evaluations per query, as the served
	// region counted them: the exact scan evaluates every row, the
	// mutable store every live row, the quantized engine only its
	// re-rank candidates.
	evals := float64(st.DistEvals)
	if m := served.Mutation; m != nil {
		evals = float64(m.LiveRows)
	}
	if q := served.Quantized; q != nil && q.TableBuilds > 0 {
		evals = float64(q.RerankEvals) / float64(q.TableBuilds)
	}
	p.res.set("knn.dist_evals_per_query", evals, "count")
	return nil
}

// vec times the distance kernel over the whole slab against one query
// and states it as a share of what the machine streams the same bytes
// at.
func (p *prober) vec() {
	sc := p.run.sc
	q := p.query(0)
	d := bestOf(5, func() {
		var acc float64
		for i := 0; i < sc.N; i++ {
			acc += vec.SquaredL2(q, p.in.row(i))
		}
		runtime.KeepAlive(acc)
	})
	elems := float64(sc.N * sc.Dims)
	scan := elems * 4 / d.Seconds() / 1e9
	stream := p.res.Envelope.StreamGBs
	p.res.set("vec.sql2_ns_per_elem", float64(d)/elems, "ns")
	p.res.set("vec.scan_gb_s", scan, "GB/s")
	p.res.set("machine.stream_gb_s", stream, "GB/s")
	p.res.set("vec.frac_of_stream", scan/stream, "ratio")
	p.res.set("machine.calib_ms", p.res.Envelope.CalibMs, "ms")
}

// topk pushes one query's real distances, in scan order, through a
// k-selector, and merges two vault-local lists.
func (p *prober) topk() {
	sc := p.run.sc
	q := p.query(0)
	dists := make([]float64, sc.N)
	for i := range dists {
		dists[i] = vec.SquaredL2(q, p.in.row(i))
	}
	kept := 0
	sel := topk.New(sc.K)
	d := bestOf(5, func() {
		sel.Reset()
		kept = 0
		for i, dist := range dists {
			if sel.Push(i, dist) {
				kept++
			}
		}
	})
	p.res.set("topk.push_ns", float64(d)/float64(sc.N), "ns")
	p.res.set("topk.admit_frac", float64(kept)/float64(sc.N), "fraction")

	half := sc.N / 2
	lists := make([][]topk.Result, 2)
	for v := range lists {
		sel.Reset()
		for i := v * half; i < (v+1)*half; i++ {
			sel.Push(i, dists[i])
		}
		lists[v] = sel.Results()
	}
	p.res.set("topk.merge_us", 1e3*medianMs(200, func(int) {
		topk.MergeSorted(sc.K, lists...)
	}), "us")
}

// pq answers "ADC or re-rank?": it trains and encodes as the region
// build does, then times the three stages of one quantized query
// apart. A workload that never enters the layer reports zeros.
func (p *prober) pq(served *wire.QuantizedStats) error {
	sc := p.run.sc
	if p.run.w.cfg.Mode != "quantized" {
		for _, m := range []struct{ name, unit string }{
			{"pq.code_evals_per_query", "count"}, {"pq.train_s", "s"}, {"pq.encode_s", "s"}, {"pq.table_us", "us"},
			{"pq.adc_ns_per_code", "ns"}, {"pq.select_ns_per_code", "ns"}, {"pq.rerank_us", "us"},
		} {
			p.res.set(m.name, 0, m.unit)
		}
		return nil
	}
	if served == nil || served.TableBuilds == 0 {
		return fmt.Errorf("statsz has no quantized block for a quantized region")
	}
	p.res.set("pq.code_evals_per_query", float64(served.CodeEvals)/float64(served.TableBuilds), "count")
	ip := p.run.w.cfg.Index
	start := time.Now()
	cb, err := pq.Train(p.in.data, sc.Dims, pq.Params{M: ip.M, Sample: ip.Sample, Seed: ip.Seed})
	if err != nil {
		return fmt.Errorf("pq probe: %w", err)
	}
	p.res.set("pq.train_s", time.Since(start).Seconds(), "s")
	start = time.Now()
	codes := pq.Pack(cb.Encode(p.in.data), cb.M())
	p.res.set("pq.encode_s", time.Since(start).Seconds(), "s")

	lut := make([]float32, cb.M()*pq.Ks)
	p.res.set("pq.table_us", 1e3*medianMs(100, func(i int) {
		cb.Table(vec.Euclidean, p.query(i), lut)
	}), "us")

	// The ADC scan alone, then with every distance offered to an
	// R-deep candidate selector as the engine does; the difference is
	// what selection costs.
	scan := bestOf(5, func() {
		var acc float32
		codes.Scan(lut, 0, codes.N(), func(_ int, dists []float32) {
			for _, dist := range dists {
				acc += dist
			}
		})
		runtime.KeepAlive(acc)
	})
	cand := topk.New(min(ip.Rerank, sc.N))
	selected := bestOf(5, func() {
		cand.Reset()
		codes.Scan(lut, 0, codes.N(), func(base int, dists []float32) {
			for i, dist := range dists {
				cand.Push(base+i, float64(dist))
			}
		})
	})
	p.res.set("pq.adc_ns_per_code", float64(scan)/float64(codes.N()), "ns")
	p.res.set("pq.select_ns_per_code", float64(max(0, selected-scan))/float64(codes.N()), "ns")

	// Exact re-rank of those candidates, in ascending row order.
	rows := cand.Results()
	final := topk.New(sc.K)
	q := p.query(0)
	p.res.set("pq.rerank_us", 1e3*medianMs(100, func(int) {
		final.Reset()
		for _, c := range rows {
			final.Push(c.ID, vec.SquaredL2(q, p.in.row(c.ID)))
		}
	}), "us")
	return nil
}

// mutate reports the write path as the clients saw it in the untraced
// windows and where the region's garbage stood at the end.
func (p *prober) mutate(load loadSummary, st *wire.MutationStats) error {
	p.res.set("mutate.upsert_ms_p50", load.UpsertP50Ms, "ms")
	p.res.set("mutate.delete_ms_p50", load.DeleteP50Ms, "ms")
	if !p.run.w.mutates() {
		p.res.set("mutate.compact_passes", 0, "count")
		p.res.set("mutate.garbage_ratio_end", 0, "ratio")
		return nil
	}
	if st == nil {
		return fmt.Errorf("statsz has no mutation block for a region that took writes")
	}
	p.res.set("mutate.compact_passes", float64(st.CompactPasses), "count")
	p.res.set("mutate.garbage_ratio_end", st.GarbageRatio, "ratio")
	return nil
}

func (p *prober) obs(untraced, traced loadSummary) {
	tracer := obs.NewTracer(0, 1)
	const pairs = 10000
	d := bestOf(5, func() {
		root := tracer.Trace("probe", true).Root()
		for i := 0; i < pairs; i++ {
			root.Start("stage").End()
		}
	})
	p.res.set("obs.span_ns", float64(d)/pairs, "ns")
	// The quietest traced window against the quietest untraced one, of
	// this same run and region.
	p.res.set("obs.trace_overhead_frac", traced.LatP50Ms/untraced.LatP50Ms-1, "fraction")
}

// usage is the process's cumulative allocation, collection and CPU
// accounting; since turns two readings into the interval between.
type usage struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
	cpu, wall      time.Duration
}

var processStart = time.Now()

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs, cpu, time.Since(processStart)}
}

func (u usage) since(o usage) usage {
	return usage{u.mallocs - o.mallocs, u.bytes - o.bytes, u.gcs - o.gcs, u.pauseNs - o.pauseNs, u.cpu - o.cpu, u.wall - o.wall}
}

// runtime covers the untraced phase, warm-up included, for the whole
// process: server and clients share it.
func (p *prober) runtime(u usage, ops int) {
	wall := u.wall
	p.res.set("runtime.allocs_per_op", float64(u.mallocs)/float64(ops), "count")
	p.res.set("runtime.bytes_per_op", float64(u.bytes)/float64(ops), "B")
	p.res.set("runtime.gc_cycles", float64(u.gcs), "count")
	p.res.set("runtime.gc_pause_ms", float64(u.pauseNs)/1e6, "ms")
	p.res.set("runtime.cpu_util", u.cpu.Seconds()/wall.Seconds()/float64(runtime.NumCPU()), "fraction")
}

// loadgen is reported, never gated: the tail moves 10-20% between
// runs of the same code on this box.
func (p *prober) loadgen(load loadSummary) {
	p.res.set("loadgen.lat_p95_ms", load.P95, "ms")
	p.res.set("loadgen.lat_p99_ms", load.P99, "ms")
	p.res.set("loadgen.lat_max_ms", load.Max, "ms")
	p.res.Counts["loadgen.lat_p95_ms"] = load.SearchCount
	p.res.set("loadgen.disturbed_windows", float64(load.Disturbed), "count")
	p.res.set("loadgen.qps_median", load.QPSMedian, "1/s")
}
