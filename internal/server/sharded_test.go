package server

// Internal tests for the sharded-region kind: they reach through the
// registry to a cluster's fault-injection hook, which the external
// server_test suite cannot do.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/server/wire"
)

// shardedFixture stands up a server with one sharded region loaded
// and built, and returns the fixture pieces tests need.
func shardedFixture(t *testing.T, shards int, allowPartial bool, rows int, dims int) (*Server, *client.Client, [][]float32, func()) {
	t.Helper()
	return shardedFixtureOpts(t, Options{}, shards, allowPartial, rows, dims)
}

func shardedFixtureOpts(t *testing.T, opts Options, shards int, allowPartial bool, rows int, dims int) (*Server, *client.Client, [][]float32, func()) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv)
	c := client.New(ts.URL)
	ctx := context.Background()

	cfg := wire.RegionConfig{Sharding: &wire.ShardingConfig{
		Shards:       shards,
		AllowPartial: allowPartial,
	}}
	if _, err := c.CreateRegion(ctx, "shardy", dims, cfg); err != nil {
		t.Fatalf("create sharded region: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]float32, rows)
	for i := range vecs {
		v := make([]float32, dims)
		for j := range v {
			v[j] = rng.Float32()
		}
		vecs[i] = v
	}
	if _, err := c.Load(ctx, "shardy", vecs); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Build(ctx, "shardy"); err != nil {
		t.Fatalf("build: %v", err)
	}
	cleanup := func() {
		srv.Close()
		ts.Close()
	}
	return srv, c, vecs, cleanup
}

// faultShard injects a permanent failure into one shard of the named
// sharded region.
func faultShard(t *testing.T, srv *Server, name string, dead int) {
	t.Helper()
	setShardHook(t, srv, name, func(shard, attempt int) error {
		if shard == dead {
			return errors.New("injected shard fault")
		}
		return nil
	})
}

// setShardHook installs fn as the fault hook of the named sharded
// region's cluster.
func setShardHook(t *testing.T, srv *Server, name string, fn func(shard, attempt int) error) {
	t.Helper()
	srv.mu.RLock()
	e := srv.regions[name]
	srv.mu.RUnlock()
	var cl *clusterBackend
	if e != nil {
		cl, _ = e.be.(*clusterBackend)
	}
	if cl == nil {
		t.Fatalf("region %q is not a live sharded region", name)
	}
	cl.SetFaultHook(fn)
}

// TestShardedDegradedResponse is the acceptance scenario: kill one
// shard of a partial-result sharded region and the server must answer
// 200 with Degraded set, the dead shard listed, and results exactly
// matching a reference region built over the surviving rows.
func TestShardedDegradedResponse(t *testing.T) {
	const (
		shards = 3
		dead   = 1
		rows   = 60
		dims   = 6
		k      = 7
	)
	srv, c, vecs, cleanup := shardedFixture(t, shards, true, rows, dims)
	defer cleanup()
	faultShard(t, srv, "shardy", dead)

	// Reference: a plain region over the rows that do NOT live on the
	// dead shard (round-robin places row i on shard i%shards), with
	// shard-local results remapped back to global row IDs.
	var survivors []int
	ref, err := ssam.New(dims, ssam.Config{})
	if err != nil {
		t.Fatalf("reference region: %v", err)
	}
	defer ref.Free()
	var flat []float32
	for i, v := range vecs {
		if i%shards != dead {
			survivors = append(survivors, i)
			flat = append(flat, v...)
		}
	}
	if err := ref.LoadFloat32(flat); err != nil {
		t.Fatalf("reference load: %v", err)
	}
	if err := ref.BuildIndex(); err != nil {
		t.Fatalf("reference build: %v", err)
	}

	ctx := context.Background()
	query := vecs[dead] // resides on the dead shard; must still answer
	resp, err := c.SearchFull(ctx, "shardy", query, k)
	if err != nil {
		t.Fatalf("degraded search: %v", err)
	}
	if !resp.Degraded {
		t.Fatalf("response not flagged Degraded: %+v", resp)
	}
	if len(resp.FailedShards) != 1 || resp.FailedShards[0] != dead {
		t.Fatalf("FailedShards = %v, want [%d]", resp.FailedShards, dead)
	}
	want, err := ref.Search(query, k)
	if err != nil {
		t.Fatalf("reference search: %v", err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(want))
	}
	for i, nb := range resp.Results {
		if got, wantID := nb.ID, survivors[want[i].ID]; got != wantID {
			t.Fatalf("result %d: id %d, want %d", i, got, wantID)
		}
		if math.Abs(nb.Distance-want[i].Dist) > 1e-9 {
			t.Fatalf("result %d: distance %g, want %g", i, nb.Distance, want[i].Dist)
		}
	}

	// Batch path degrades the same way.
	bresp, err := c.SearchBatchFull(ctx, "shardy", [][]float32{vecs[0], query}, k)
	if err != nil {
		t.Fatalf("degraded batch search: %v", err)
	}
	if !bresp.Degraded || len(bresp.FailedShards) != 1 || bresp.FailedShards[0] != dead {
		t.Fatalf("batch degradation = (%v, %v), want (true, [%d])",
			bresp.Degraded, bresp.FailedShards, dead)
	}
	if len(bresp.Results) != 2 {
		t.Fatalf("batch returned %d rows, want 2", len(bresp.Results))
	}

	// /statsz exposes the damage: a degraded count and per-shard
	// failure counters.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	rs, ok := stats.Regions["shardy"]
	if !ok {
		t.Fatalf("statsz missing region shardy: %+v", stats.Regions)
	}
	if rs.Degraded < 2 {
		t.Fatalf("statsz degraded = %d, want >= 2", rs.Degraded)
	}
	if len(rs.Shards) != shards {
		t.Fatalf("statsz shard blocks = %d, want %d", len(rs.Shards), shards)
	}
	var deadFailures uint64
	for _, sh := range rs.Shards {
		if sh.Shard == dead {
			deadFailures = sh.Failures
		}
	}
	if deadFailures == 0 {
		t.Fatalf("statsz shows no failures on shard %d: %+v", dead, rs.Shards)
	}
}

// TestShardedStrictModeFails: without AllowPartial, a dead shard must
// fail the whole query with a 5xx instead of degrading silently.
func TestShardedStrictModeFails(t *testing.T) {
	srv, c, _, cleanup := shardedFixture(t, 3, false, 30, 4)
	defer cleanup()
	faultShard(t, srv, "shardy", 2)

	_, err := c.Search(context.Background(), "shardy", []float32{1, 2, 3, 4}, 3)
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code < 500 {
		t.Fatalf("strict-mode search with dead shard = %v, want 5xx StatusError", err)
	}
}

// TestShardedInfoReportsShards: region info carries the shard count so
// clients and the CLI can tell the kinds apart.
func TestShardedInfoReportsShards(t *testing.T) {
	_, c, _, cleanup := shardedFixture(t, 4, true, 20, 3)
	defer cleanup()
	info, err := c.Region(context.Background(), "shardy")
	if err != nil {
		t.Fatalf("region info: %v", err)
	}
	if info.Shards != 4 {
		t.Fatalf("info.Shards = %d, want 4", info.Shards)
	}
	if info.Len != 20 {
		t.Fatalf("info.Len = %d, want 20", info.Len)
	}
}

// TestOverCapacitySheds checks admission control: with a 2-token
// budget and both tokens held by requests stuck in a blocked backend,
// every further request must be answered with 503 + Retry-After
// instead of queuing without bound, and the held ones still succeed.
func TestOverCapacitySheds(t *testing.T) {
	const dims = 8
	srv, c, vecs, cleanup := shardedFixtureOpts(t,
		Options{MaxInFlight: 2, RetryAfter: 7 * time.Second}, 1, false, 64, dims)
	defer cleanup()
	entered := make(chan struct{}, 2)
	gate := make(chan struct{})
	setShardHook(t, srv, "shardy", func(int, int) error {
		entered <- struct{}{}
		<-gate
		return nil
	})

	// Straight into the handler (no client retry) so 503s are observable.
	post := func(q []float32) (int, string) {
		body, _ := json.Marshal(wire.SearchRequest{Query: q, K: 3})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/regions/shardy/search", bytes.NewReader(body)))
		return rec.Code, rec.Header().Get("Retry-After")
	}

	held := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			code, _ := post(vecs[i])
			held <- code
		}(i)
	}
	<-entered
	<-entered

	const burst = 8
	for i := 0; i < burst; i++ {
		code, retryAfter := post(vecs[2+i])
		if code != http.StatusServiceUnavailable {
			t.Fatalf("request %d past a held 2-token budget: status %d, want 503", i, code)
		}
		if retryAfter != "7" {
			t.Fatalf("503 %d carried Retry-After %q, want \"7\"", i, retryAfter)
		}
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-held; code != http.StatusOK {
			t.Fatalf("held request finished with status %d, want 200", code)
		}
	}

	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rejected != burst {
		t.Fatalf("statsz rejected = %d, observed %d sheds", stats.Rejected, burst)
	}
	if stats.MaxInFlight != 2 {
		t.Fatalf("statsz max_in_flight = %d, want 2", stats.MaxInFlight)
	}
}
