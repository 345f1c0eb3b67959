package server

// End-to-end tests for replicated regions. Two acceptance scenarios
// from the replication issue are pinned here: killing one replica of
// a healthy group under concurrent load produces zero degraded or
// error responses, and a zero-downtime reload under load never drops
// or double-answers a query. In-package because they reach the
// FailReplica chaos seam and the registry.

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/server/wire"
)

// replicatedFixture stands up a server with one replicated region
// loaded and built.
func replicatedFixture(t *testing.T, name string, cfg wire.RegionConfig, rows, dims int) (*Server, *httptest.Server, *client.Client, [][]float32) {
	t.Helper()
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { srv.Close(); ts.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()

	info, err := c.CreateRegion(ctx, name, dims, cfg)
	if err != nil {
		t.Fatalf("create replicated region: %v", err)
	}
	if info.Replicas != cfg.Replicas.Replicas {
		t.Fatalf("created region reports %d replicas, want %d", info.Replicas, cfg.Replicas.Replicas)
	}
	rng := rand.New(rand.NewSource(77))
	vecs := make([][]float32, rows)
	for i := range vecs {
		v := make([]float32, dims)
		for j := range v {
			v[j] = rng.Float32()
		}
		vecs[i] = v
	}
	if _, err := c.Load(ctx, name, vecs); err != nil {
		t.Fatalf("load: %v", err)
	}
	info, err = c.Build(ctx, name)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if info.Gen != 1 {
		t.Fatalf("built region at generation %d, want 1", info.Gen)
	}
	return srv, ts, c, vecs
}

// TestReplicatedBatchesCounted: a replicated /search executes a batch
// of one on the group, and the region counts it as /searchbatch's is.
func TestReplicatedBatchesCounted(t *testing.T) {
	srv, _, c, vecs := replicatedFixture(t, "rb", wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 2},
	}, 60, 4)
	checkBatchesCounted(t, srv, c, "rb", vecs)
}

// referenceRegion builds a plain single region over the same rows for
// bit-identical comparison.
func referenceRegion(t *testing.T, vecs [][]float32, dims int) *ssam.Region {
	t.Helper()
	ref, err := ssam.New(dims, ssam.Config{})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	t.Cleanup(ref.Free)
	flat := make([]float32, 0, len(vecs)*dims)
	for _, v := range vecs {
		flat = append(flat, v...)
	}
	if err := ref.LoadFloat32(flat); err != nil {
		t.Fatalf("reference load: %v", err)
	}
	if err := ref.BuildIndex(); err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return ref
}

// TestReplicatedKillOneSoak is the availability acceptance test: with
// three replicas serving concurrent traffic, one replica is killed
// mid-run and every single response must still be a non-degraded
// success (run under -race in CI).
func TestReplicatedKillOneSoak(t *testing.T) {
	const (
		rows, dims = 240, 8
		k          = 5
		workers    = 4
		perWorker  = 60
		dead       = 1
	)
	srv, _, c, vecs := replicatedFixture(t, "soak", wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 3, Hedge: true},
	}, rows, dims)
	ref := referenceRegion(t, vecs, dims)
	ctx := context.Background()

	run := func(phase string, killed bool) {
		var wg sync.WaitGroup
		var failures atomic.Uint64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					q := vecs[(w*perWorker+i)%len(vecs)]
					resp, err := c.SearchFull(ctx, "soak", q, k)
					if err != nil {
						t.Errorf("%s: search error: %v", phase, err)
						failures.Add(1)
						return
					}
					if resp.Degraded || len(resp.FailedShards) != 0 {
						t.Errorf("%s: degraded response %+v", phase, resp)
						failures.Add(1)
						return
					}
					want, _, _ := ref.SearchStatsSpan(q, k, nil)
					if len(resp.Results) != len(want) {
						t.Errorf("%s: %d results, reference %d", phase, len(resp.Results), len(want))
						return
					}
					if killed && resp.Replica != nil && *resp.Replica == dead {
						t.Errorf("%s: answer attributed to the killed replica", phase)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if failures.Load() > 0 {
			t.Fatalf("%s: %d degraded/error responses, want zero", phase, failures.Load())
		}
	}

	run("healthy", false)
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.FailReplica("soak", dead); err != nil {
		t.Fatalf("FailReplica: %v", err)
	}
	run("one-replica-killed", true)

	// The outage is visible in the stats even though no caller saw it —
	// unless the load-aware router never attempted the dead replica at
	// all (its pre-kill EWMA can legitimately keep it out of every
	// power-of-two choice), in which case there is nothing to trace and
	// the accounting must agree that zero attempts reached it.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep := stats.Regions["soak"].Replication
	if rep == nil {
		t.Fatal("no replication block in /statsz")
	}
	if rep.Gen != 1 || len(rep.Replicas) != 3 {
		t.Fatalf("replication stats %+v", rep)
	}
	var errs, failovers uint64
	for _, rs := range rep.Replicas {
		errs += rs.Errors
		failovers += rs.Failovers
	}
	deadAttempts := rep.Replicas[dead].Queries - before.Regions["soak"].Replication.Replicas[dead].Queries
	if deadAttempts > 0 && (errs == 0 || failovers == 0) {
		t.Fatalf("kill left no trace: %d attempts reached the dead replica but %d errors, %d failovers recorded",
			deadAttempts, errs, failovers)
	}
	if deadAttempts == 0 && errs == 0 {
		t.Logf("router steered every post-kill query around the dead replica; no trace expected")
	}

	if err := srv.HealReplicas("soak"); err != nil {
		t.Fatalf("HealReplicas: %v", err)
	}
	run("healed", false)
}

// TestReloadUnderLoad pins the zero-downtime contract over the wire:
// generations are swapped while concurrent searches run, and every
// response — before, during, and after each cutover — is a success
// bit-identical to the reference. Nothing is dropped (every request
// gets exactly one answer) and nothing is served from a half-installed
// generation (a response's generation is always one the server
// actually finished installing).
func TestReloadUnderLoad(t *testing.T) {
	const (
		rows, dims = 200, 6
		k          = 4
		workers    = 3
		reloads    = 3
	)
	_, _, c, vecs := replicatedFixture(t, "live", wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 2, Hedge: true},
	}, rows, dims)
	ref := referenceRegion(t, vecs, dims)
	ctx := context.Background()

	stop := make(chan struct{})
	var answered atomic.Uint64
	var maxGen atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := vecs[(w+i*workers)%len(vecs)]
				resp, err := c.SearchFull(ctx, "live", q, k)
				if err != nil {
					t.Errorf("search during reload: %v", err)
					return
				}
				want, _, _ := ref.SearchStatsSpan(q, k, nil)
				if !reflect.DeepEqual(resp.Results, toNeighbors(want)) {
					t.Errorf("response diverged from reference during reload (gen %d)", resp.Gen)
					return
				}
				answered.Add(1)
				for {
					cur := maxGen.Load()
					if resp.Gen <= cur || maxGen.CompareAndSwap(cur, resp.Gen) {
						break
					}
				}
			}
		}(w)
	}

	lastGen := uint64(1)
	for i := 0; i < reloads; i++ {
		rl, err := c.Reload(ctx, "live")
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if rl.Gen != lastGen+1 || rl.Replicas != 2 || rl.Len != rows {
			t.Fatalf("reload %d response %+v, want gen %d over %d rows", i, rl, lastGen+1, rows)
		}
		lastGen = rl.Gen
	}
	close(stop)
	wg.Wait()

	if answered.Load() == 0 {
		t.Fatal("no queries overlapped the reloads")
	}
	// No response ever claimed a generation the server had not
	// installed.
	if g := maxGen.Load(); g > lastGen {
		t.Fatalf("a response reported generation %d, newest installed is %d", g, lastGen)
	}

	info, err := c.Region(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != lastGen || info.Replicas != 2 {
		t.Fatalf("region info %+v after %d reloads", info, reloads)
	}
}

// TestReplicatedMutationsOverWire drives the write path of a
// replicated region through HTTP: upserts and deletes fan out to all
// replicas, so every subsequent search — whichever replica answers —
// sees them; a reload rebuilds from the staged rows, dropping
// mutations, as documented.
func TestReplicatedMutationsOverWire(t *testing.T) {
	const (
		rows, dims = 80, 5
		k          = 3
	)
	_, _, c, _ := replicatedFixture(t, "mut", wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 3},
	}, rows, dims)
	ctx := context.Background()

	// A probe vector far outside the unit-cube corpus: its own upsert
	// is its unambiguous nearest neighbour at distance zero.
	probe := []float32{50, 50, 50, 50, 50}
	newID := rows + 5
	mr, err := c.Upsert(ctx, "mut", []int{newID}, [][]float32{probe})
	if err != nil {
		t.Fatalf("upsert: %v", err)
	}
	if mr.Seq == 0 {
		t.Fatalf("upsert seq %d", mr.Seq)
	}
	// Ask enough times that several replicas answer; each must see the
	// write.
	seen := map[int]bool{}
	for i := 0; i < 12; i++ {
		resp, err := c.SearchFull(ctx, "mut", probe, k)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if len(resp.Results) == 0 || resp.Results[0].ID != newID || resp.Results[0].Distance != 0 {
			t.Fatalf("search %d (replica %v) missed the upsert: %+v", i, resp.Replica, resp.Results)
		}
		if resp.Replica != nil {
			seen[*resp.Replica] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("all answers came from replica set %v; routing never spread", seen)
	}

	dr, err := c.Delete(ctx, "mut", []int{newID})
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if dr.Seq != mr.Seq+1 || dr.Applied != 1 {
		t.Fatalf("delete response %+v after seq %d", dr, mr.Seq)
	}
	for i := 0; i < 6; i++ {
		resp, err := c.SearchFull(ctx, "mut", probe, k)
		if err != nil {
			t.Fatalf("post-delete search: %v", err)
		}
		for _, r := range resp.Results {
			if r.ID == newID {
				t.Fatalf("replica %v still serves the deleted row", resp.Replica)
			}
		}
	}

	// Reload rebuilds from staged rows: the upsert/delete history is
	// gone and the region serves exactly the loaded corpus again.
	rl, err := c.Reload(ctx, "mut")
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if rl.Len != rows {
		t.Fatalf("reloaded region has %d rows, want the %d staged", rl.Len, rows)
	}
}

// TestReplicatedShardedWritesConflict pins the replicas-of-shards
// combination: searches work, writes are rejected with 409 because
// sharded backends are immutable.
func TestReplicatedShardedWritesConflict(t *testing.T) {
	const (
		rows, dims = 90, 6
		k          = 4
	)
	_, _, c, vecs := replicatedFixture(t, "rs", wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 2},
		Sharding: &wire.ShardingConfig{Shards: 3},
	}, rows, dims)
	ref := referenceRegion(t, vecs, dims)
	ctx := context.Background()

	for i := 0; i < 8; i++ {
		resp, err := c.SearchFull(ctx, "rs", vecs[i], k)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want, _, _ := ref.SearchStatsSpan(vecs[i], k, nil)
		if !reflect.DeepEqual(resp.Results, toNeighbors(want)) {
			t.Fatalf("sharded-replicated answer diverged from reference")
		}
	}

	var se *client.StatusError
	if _, err := c.Upsert(ctx, "rs", []int{1}, vecs[:1]); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("upsert on sharded replicas = %v, want 409", err)
	}
	if _, err := c.Delete(ctx, "rs", []int{1}); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("delete on sharded replicas = %v, want 409", err)
	}
}

// TestReloadConflicts pins the reload endpoint's refusals: regions
// that are not replicated, or not yet built, answer 409.
func TestReloadConflicts(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if _, err := c.CreateRegion(ctx, "plain", 4, wire.RegionConfig{}); err != nil {
		t.Fatal(err)
	}
	var se *client.StatusError
	if _, err := c.Reload(ctx, "plain"); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("reload of unreplicated region = %v, want 409", err)
	}

	if _, err := c.CreateRegion(ctx, "cold", 4, wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reload(ctx, "cold"); !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("reload before build = %v, want 409", err)
	}

	if _, err := c.Reload(ctx, "ghost"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("reload of missing region = %v, want 404", err)
	}
}

// TestReplicatedObservability asserts the replication state shows up
// on every surface: per-replica series and group gauges in /metrics,
// and the replication block in /statsz, all consistent with driven
// traffic.
func TestReplicatedObservability(t *testing.T) {
	const (
		rows, dims = 60, 4
		k          = 3
		queries    = 10
	)
	_, ts, c, vecs := replicatedFixture(t, "ob", wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 2},
	}, rows, dims)
	ctx := context.Background()

	for i := 0; i < queries; i++ {
		if _, err := c.Search(ctx, "ob", vecs[i], k); err != nil {
			t.Fatalf("search: %v", err)
		}
	}
	if _, err := c.Reload(ctx, "ob"); err != nil {
		t.Fatalf("reload: %v", err)
	}

	samples := fetchMetrics(t, ts)
	if got := samples[`ssam_region_gen{region="ob"}`]; got != 2 {
		t.Errorf("ssam_region_gen = %v, want 2 after one reload", got)
	}
	if got := samples[`ssam_region_swaps_total{region="ob"}`]; got != 2 {
		t.Errorf("ssam_region_swaps_total = %v, want 2", got)
	}
	var attempts float64
	for _, rep := range []string{"0", "1"} {
		key := `ssam_replica_queries_total{region="ob",replica="` + rep + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("/metrics missing %s", key)
		}
		attempts += v
	}
	// The reload warms each new replica with warmQueries staged rows,
	// outside the routed path; routed attempts must cover at least the
	// driven queries.
	if attempts < queries {
		t.Errorf("replica attempt total %v, want >= %d driven queries", attempts, queries)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep := stats.Regions["ob"].Replication
	if rep == nil {
		t.Fatal("no replication block in /statsz")
	}
	if rep.Gen != 2 || rep.Swaps != 2 || len(rep.Replicas) != 2 {
		t.Fatalf("replication stats %+v", rep)
	}
	if rep.HedgeDelayMs <= 0 {
		t.Fatalf("hedge delay %v ms, want positive", rep.HedgeDelayMs)
	}
	var statAttempts uint64
	for _, rs := range rep.Replicas {
		statAttempts += rs.Queries
	}
	if float64(statAttempts) != attempts {
		t.Fatalf("/statsz attempt total %d disagrees with /metrics %v", statAttempts, attempts)
	}
}
