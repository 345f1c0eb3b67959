package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ssam/internal/client"
	"ssam/internal/obs"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// harness stands the query server up in-process on a loopback
// listener and drives it through the typed client, retries off, so a
// shed request surfaces as a failure instead of being papered over.
type harness struct {
	runConfig
	in *inputs

	srv       *server.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	cl        *client.Client
}

// requestTimeout bounds one HTTP request; a 5000-row load and a build
// are the slow ones.
const requestTimeout = 2 * time.Minute

// newHarness starts a server with default Options. With traced set the
// client's transport also stamps client spans and asks the server for
// its span tree on requests whose context carries a roundTrip.
func newHarness(run runConfig, in *inputs, traced bool) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{runConfig: run, in: in, served: make(chan error, 1)}
	h.srv = server.New(server.Options{})
	h.hs = &http.Server{Handler: h.srv}
	go func() { h.served <- h.hs.Serve(ln) }()

	// One connection per closed-loop client and no more: a caller of
	// this API holds one connection and waits on it.
	conns := run.w.clients
	h.transport = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	var rt http.RoundTripper = h.transport
	if traced {
		rt = spanTransport{next: h.transport}
	}
	h.cl = client.New("http://"+ln.Addr().String(),
		client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: rt, Timeout: requestTimeout}))
	return h, nil
}

// close stops the server and waits for its serve loop to return.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.transport.CloseIdleConnections()
	err := h.hs.Shutdown(ctx)
	h.srv.Close()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// setup creates, loads and builds the workload's region over HTTP and
// returns the wall time from CreateRegion to Build returning.
func (h *harness) setup(ctx context.Context, name string) (time.Duration, error) {
	cfg := h.w.cfg
	rows := make([][]float32, h.sc.N)
	for i := range rows {
		rows[i] = h.in.row(i)
	}
	start := time.Now()
	if _, err := h.cl.CreateRegion(ctx, name, h.sc.Dims, cfg); err != nil {
		return 0, fmt.Errorf("create %s: %w", name, err)
	}
	for lo := 0; lo < len(rows); lo += h.sc.Chunk {
		hi := min(lo+h.sc.Chunk, len(rows))
		if _, err := h.cl.LoadAppend(ctx, name, rows[lo:hi]); err != nil {
			return 0, fmt.Errorf("load %s rows %d-%d: %w", name, lo, hi, err)
		}
	}
	if _, err := h.cl.Build(ctx, name); err != nil {
		return 0, fmt.Errorf("build %s: %w", name, err)
	}
	return time.Since(start), nil
}

// liveHeap is the heap still reachable after a full collection, with
// freed spans handed back to the OS so the next reading starts level.
func liveHeap() uint64 {
	runtime.GC()
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// clientLog is what one closed-loop client brings back from a phase.
type clientLog struct {
	samples   []sample
	spans     []requestSpan // traced phases only
	attempted int           // operations, a 16-query batch counting 16
	failed    int
	firstErr  error
	m         model
}

func (l *clientLog) fail(ops int, err error) {
	l.failed += ops
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// phase is one stretch of closed-loop load on a built region: warm-up,
// then count windows of length window.
type phase struct {
	region string
	index  int // distinguishes the op streams of a run's phases
	warmup time.Duration
	window time.Duration
	count  int
	traced bool
}

type phaseResult struct {
	windows   []window
	spans     []requestSpan
	models    []model
	attempted int
	failed    int
	firstErr  error
}

func (h *harness) runPhase(ctx context.Context, p phase) phaseResult {
	n := h.w.clients
	logs := make([]*clientLog, n)
	begin := time.Now()
	measureFrom := begin.Add(p.warmup)
	until := measureFrom.Add(time.Duration(p.count) * p.window)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		logs[c] = &clientLog{m: model{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := newOpStream(h.w, h.sc, h.seed, p.index, c, n)
			for time.Now().Before(until) {
				h.do(ctx, p, st.next(), logs[c])
			}
		}(c)
	}
	wg.Wait()

	var res phaseResult
	var all []sample
	for _, l := range logs {
		all = append(all, l.samples...)
		res.spans = append(res.spans, l.spans...)
		res.models = append(res.models, l.m)
		res.attempted += l.attempted
		res.failed += l.failed
		if res.firstErr == nil {
			res.firstErr = l.firstErr
		}
	}
	res.windows = binWindows(all, measureFrom, p.window, p.count)
	return res
}

// idLimit is the exclusive upper bound of the ids an answer may name.
func (h *harness) idLimit() int {
	if h.w.mutates() {
		return h.sc.idSpace()
	}
	return h.sc.N
}

// do issues one operation, validates its answer and logs it.
func (h *harness) do(ctx context.Context, p phase, o op, l *clientLog) {
	var rt *roundTrip
	if p.traced {
		rt = &roundTrip{}
		ctx = context.WithValue(ctx, roundTripKey{}, rt)
	}
	ops := 1
	idLimit := h.idLimit()
	var err error
	var trace *obs.TraceData // the server's span tree, on traced requests
	var end time.Time        // taken before validation, which is the harness's work
	start := time.Now()
	switch {
	case o.kind == opSearch && h.w.batch > 0:
		ops = h.w.batch
		qs := make([][]float32, ops)
		for j := range qs {
			qs[j] = h.in.queries[(o.query+j)%h.sc.Queries]
		}
		var resp wire.SearchBatchResponse
		resp, err = h.cl.SearchBatchFull(ctx, p.region, qs, h.sc.K)
		end = time.Now()
		trace = resp.Trace
		if err == nil && len(resp.Results) != ops {
			err = fmt.Errorf("batch answered %d of %d queries", len(resp.Results), ops)
		}
		for j := 0; err == nil && j < ops; j++ {
			err = checkAnswer(resp.Results[j], h.sc.K, idLimit)
		}
	case o.kind == opSearch:
		var resp wire.SearchResponse
		resp, err = h.cl.SearchFull(ctx, p.region, h.in.queries[o.query], h.sc.K)
		end = time.Now()
		trace = resp.Trace
		if err == nil {
			err = checkAnswer(resp.Results, h.sc.K, idLimit)
		}
	case o.kind == opUpsert:
		var resp wire.MutateResponse
		resp, err = h.cl.Upsert(ctx, p.region, []int{o.id}, [][]float32{h.in.pool[o.pool]})
		end = time.Now()
		trace = resp.Trace
		if err == nil && resp.Applied != 1 {
			err = fmt.Errorf("upsert of id %d applied %d rows", o.id, resp.Applied)
		}
	case o.kind == opDelete:
		var resp wire.MutateResponse
		resp, err = h.cl.Delete(ctx, p.region, []int{o.id})
		end = time.Now()
		trace = resp.Trace
	}
	l.attempted += ops
	if err != nil {
		l.fail(ops, fmt.Errorf("%s op: %w", h.w.name, err))
		return
	}
	l.m.apply(o)
	l.samples = append(l.samples, sample{kind: o.kind, ops: ops, lat: end.Sub(start), done: end})
	if rt != nil {
		rt.server = trace
		l.spans = append(l.spans, requestSpan{start: start, end: end, rt: *rt})
	}
}

// checkAgainstOracle holds the quiesced region to the benchmark's own
// brute force over the rows the clients' models say it must now hold
// (models in the order their phases ran), tallies the verification
// requests into res and returns the mean recall@k.
func (h *harness) checkAgainstOracle(ctx context.Context, region string, models []model, res *result) float64 {
	ids, rows := h.in.liveRows(models)
	want := oracleTopK(ids, rows, h.in.queries[:h.sc.Verify], h.sc.K)
	rec, attempted, failed, err := h.verify(ctx, region, want)
	res.tally(attempted, failed, err)
	if rec < h.w.recallFloor {
		res.incorrect(fmt.Errorf("recall@%d %.4f below the workload's floor %.2f", h.sc.K, rec, h.w.recallFloor))
	}
	return rec
}

// verify answers the first len(want) queries on the quiesced region
// through the workload's own request type and returns the mean
// recall@k against want.
func (h *harness) verify(ctx context.Context, region string, want [][]int) (rec float64, attempted, failed int, firstErr error) {
	idLimit := h.idLimit()
	step := max(h.w.batch, 1)
	var sum float64
	for lo := 0; lo < len(want); lo += step {
		hi := min(lo+step, len(want))
		attempted += hi - lo
		var got [][]wire.Neighbor
		var err error
		if h.w.batch > 0 {
			got, err = h.cl.SearchBatch(ctx, region, h.in.queries[lo:hi], h.sc.K)
			if err == nil && len(got) != hi-lo {
				err = fmt.Errorf("batch answered %d of %d queries", len(got), hi-lo)
			}
		} else {
			var res []wire.Neighbor
			res, err = h.cl.Search(ctx, region, h.in.queries[lo], h.sc.K)
			got = [][]wire.Neighbor{res}
		}
		for j := 0; err == nil && j < len(got); j++ {
			err = checkAnswer(got[j], h.sc.K, idLimit)
		}
		if err != nil {
			failed += hi - lo
			if firstErr == nil {
				firstErr = fmt.Errorf("verify query %d: %w", lo, err)
			}
			continue
		}
		for j, g := range got {
			sum += recall(want[lo+j], g)
		}
	}
	return sum / float64(len(want)), attempted, failed, firstErr
}
