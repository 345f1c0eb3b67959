package server

// In-process soak test: open-loop traffic against a sharded server
// while a fault hook injects failures and latency on one shard. The
// invariants under stress: every issued request gets exactly one
// response, the /metrics counters scraped mid-flight never move
// backwards, and the degraded flag agrees with the failed-shard list
// on every response. Runs under -race in CI.

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// soakFault fails roughly a third of primary attempts on the target
// shard and delays another third, so the run exercises the degraded
// path, the happy path, and slow-shard queuing all at once.
func soakFault(target int) func(shard, attempt int) error {
	var n atomic.Uint64
	return func(shard, attempt int) error {
		if shard != target {
			return nil
		}
		switch n.Add(1) % 3 {
		case 0:
			return errors.New("soak: injected shard fault")
		case 1:
			time.Sleep(500 * time.Microsecond)
		}
		return nil
	}
}

// monotoneCounters filters a /metrics scrape down to the series that
// must be monotone: counters (_total) and histogram accumulators
// (_bucket, _sum, _count). Gauges (inflight, queue depth, uptime) are
// free to move both ways.
func monotoneCounters(samples map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for series, v := range samples {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				out[series] = v
				break
			}
		}
	}
	return out
}

func TestSoakShardedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		shards   = 3
		requests = 300
		interval = time.Millisecond
	)
	srv, c, vecs, cleanup := shardedFixture(t, shards, true, 240, 8)
	defer cleanup()

	srv.mu.RLock()
	e := srv.regions["shardy"]
	srv.mu.RUnlock()
	e.be.(*clusterBackend).SetFaultHook(soakFault(1))

	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Scraper goroutine: pull /metrics every few milliseconds during
	// the run. Bodies are only collected here — parsing and the
	// monotonicity check happen on the test goroutine afterwards,
	// because t.Fatalf must not be called from another goroutine.
	scrapeCtx, stopScrape := context.WithCancel(context.Background())
	scrapeDone := make(chan struct{})
	var scrapes []string
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-scrapeCtx.Done():
				return
			case <-time.After(5 * time.Millisecond):
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				continue // server teardown race; the final scrape is checked below
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				scrapes = append(scrapes, string(body))
			}
		}
	}()

	// Open-loop load: one request launched per tick regardless of how
	// many are still in flight, so a slow shard builds real queueing.
	type outcome struct {
		err      error
		degraded bool
		failed   []int
		results  int
	}
	outcomes := make(chan outcome, requests)
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(23))
	queries := make([][]float32, requests)
	for i := range queries {
		queries[i] = vecs[rng.Intn(len(vecs))]
	}
	ctx := context.Background()
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(q []float32) {
			defer wg.Done()
			resp, err := c.SearchFull(ctx, "shardy", q, 5)
			outcomes <- outcome{err: err, degraded: resp.Degraded, failed: resp.FailedShards, results: len(resp.Results)}
		}(queries[i])
		time.Sleep(interval)
	}
	wg.Wait()
	close(outcomes)
	stopScrape()
	<-scrapeDone

	// Monotone counters: across consecutive mid-flight scrapes, no
	// counter or histogram accumulator may move backwards.
	if len(scrapes) < 2 {
		t.Fatalf("only %d mid-flight scrapes collected; soak too short to check monotonicity", len(scrapes))
	}
	prev := map[string]float64{}
	for i, body := range scrapes {
		cur := monotoneCounters(parsePrometheus(t, body))
		for series, was := range prev {
			if now, ok := cur[series]; ok && now < was {
				t.Fatalf("scrape %d: counter %s went backwards: %v -> %v", i, series, was, now)
			}
		}
		prev = cur
	}

	// No lost responses: every request produced exactly one outcome.
	var got, degraded, failures int
	for o := range outcomes {
		got++
		if o.err != nil {
			failures++
			continue
		}
		// Degraded-flag consistency: the flag and the failed-shard list
		// must agree, and a degraded answer still carries results (the
		// surviving shards' merge).
		if o.degraded != (len(o.failed) > 0) {
			t.Fatalf("degraded=%v but failed_shards=%v", o.degraded, o.failed)
		}
		if o.degraded {
			degraded++
			for _, si := range o.failed {
				if si != 1 {
					t.Fatalf("shard %d reported failed; only shard 1 is faulted", si)
				}
			}
		}
		if o.results == 0 {
			t.Fatal("successful response with zero results")
		}
	}
	if got != requests {
		t.Fatalf("lost responses: issued %d, got %d outcomes", requests, got)
	}
	// The fault hook fails a third of shard-1 attempts, so with
	// allow-partial the run must have served degraded answers, and with
	// retries in the client no request should have failed outright.
	if degraded == 0 {
		t.Fatal("fault injection produced no degraded responses")
	}
	if failures > 0 {
		t.Fatalf("%d requests failed outright; allow-partial should absorb single-shard faults", failures)
	}

	// Final scrape: the servers own counters must account for the
	// traffic — every request admitted, shard failures recorded.
	final := fetchMetrics(t, ts)
	if q := final[`ssam_region_queries_total{region="shardy"}`]; q != float64(requests) {
		t.Errorf("queries_total = %v, want %d", q, requests)
	}
	if f := final[`ssam_shard_failures_total{region="shardy",shard="1"}`]; f == 0 {
		t.Error("no shard failures recorded for the faulted shard")
	}
	if d := final[`ssam_region_degraded_total{region="shardy"}`]; int(d) != degraded {
		t.Errorf("degraded_total = %v, clients saw %d degraded responses", d, degraded)
	}
	if r := final[`ssam_rejected_total`]; r > 0 {
		// Shed requests are retried by the client, so rejected>0 is not
		// an error — but it would explain queries_total drift, so log it.
		t.Logf("server shed %v requests during soak (retried by client)", r)
	}
}
