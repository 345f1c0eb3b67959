package server

// Lifetime, containment and status tests over HTTP: a sharded region
// reloaded or deleted under load answers exactly or refuses with a
// typed status and never takes the process down; a panic inside one
// shard or replica attempt is that attempt's failure; a backend failure
// is a 500 on both search endpoints.

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"ssam"
	"ssam/internal/client"
	"ssam/internal/server/wire"
)

// sameNeighbors reports whether a wire answer is the oracle's, exactly.
func sameNeighbors(got []wire.Neighbor, want []ssam.Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Distance != want[i].Dist {
			return false
		}
	}
	return true
}

// statusOf returns the HTTP status a client error carries (0 if none).
func statusOf(err error) int {
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// hammer runs 8 clients against region — /search and /searchbatch
// alternately — until stop closes. Every response must be a 200
// carrying one oracle's neighbours in full or one of the allowed typed
// refusals.
func hammer(t *testing.T, c *client.Client, region string, vecs [][]float32, k int, stop <-chan struct{}, allowed func(code int) bool, oracles ...*ssam.Region) *sync.WaitGroup {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := vecs[i%len(vecs)]
				var got []wire.Neighbor
				var err error
				if i%3 == 0 {
					var rows [][]wire.Neighbor
					if rows, err = c.SearchBatch(ctx, region, [][]float32{q}, k); err == nil {
						got = rows[0]
					}
				} else {
					got, err = c.Search(ctx, region, q, k)
				}
				switch {
				case err == nil && !slices.ContainsFunc(oracles, func(ref *ssam.Region) bool {
					want, _ := ref.Search(q, k)
					return sameNeighbors(got, want)
				}):
					t.Errorf("client %d: 200 with %v, which is no oracle's answer in full", g, got)
					return
				case err != nil && !allowed(statusOf(err)):
					t.Errorf("client %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	return &wg
}

// TestShardedReloadUnderLoad is the reproduction that used to kill the
// process: a 4-shard region, 8 searchers, and a loop of load + build.
func TestShardedReloadUnderLoad(t *testing.T) {
	const shards, rows, dims, k = 4, 64, 6, 5
	_, c, vecs, cleanup := shardedFixture(t, shards, false, rows, dims)
	defer cleanup()
	ref := referenceRegion(t, vecs, dims)
	ctx := context.Background()

	stop := make(chan struct{})
	wg := hammer(t, c, "shardy", vecs, k, stop, func(code int) bool {
		return code == http.StatusConflict || code >= 500
	}, ref)
	for i := 0; i < 40 && !t.Failed(); i++ {
		if _, err := c.Load(ctx, "shardy", vecs); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if _, err := c.Build(ctx, "shardy"); err != nil {
			t.Fatalf("rebuild %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz after the reloads: %v", err)
	}
	got, err := c.Search(ctx, "shardy", vecs[3], k)
	if want, _ := ref.Search(vecs[3], k); err != nil || !sameNeighbors(got, want) {
		t.Fatalf("search after the reloads = (%v, %v), want %v", got, err, want)
	}
}

// TestShardedDeleteUnderLoad deletes the region under the same load:
// queries in flight finish exactly, later ones find no region.
func TestShardedDeleteUnderLoad(t *testing.T) {
	const shards, rows, dims, k = 4, 64, 6, 5
	for round := 0; round < 5; round++ {
		func() {
			_, c, vecs, cleanup := shardedFixture(t, shards, false, rows, dims)
			defer cleanup()
			ref := referenceRegion(t, vecs, dims)
			ctx := context.Background()

			stop := make(chan struct{})
			wg := hammer(t, c, "shardy", vecs, k, stop, func(code int) bool {
				return code == http.StatusNotFound || code == http.StatusConflict || code >= 500
			}, ref)
			for st, _ := c.Stats(ctx); st.Regions["shardy"].Queries == 0 && !t.Failed(); st, _ = c.Stats(ctx) {
			}
			if err := c.Free(ctx, "shardy"); err != nil {
				t.Fatalf("delete: %v", err)
			}
			close(stop)
			wg.Wait()
			if err := c.Health(ctx); err != nil {
				t.Fatalf("healthz after the delete: %v", err)
			}
		}()
	}
}

// TestPlainReloadAlternatingDatasets alternates two datasets of
// different sizes on one plain region under 8 searchers, each loaded as
// two requests — append=false, then append=true — and built. The region
// adopts every load's slab without copying it, so a load that wrote into
// a slab an engine still scans would tear rows: every 200 must be one
// dataset's answer in full. The sharded twin is
// cluster.TestReloadAlternatingDatasets.
func TestPlainReloadAlternatingDatasets(t *testing.T) {
	const dims, k = 6, 5
	rng := rand.New(rand.NewSource(41))
	vecs := func(n int) [][]float32 {
		out := make([][]float32, n)
		for i := range out {
			out[i] = make([]float32, dims)
			for j := range out[i] {
				out[i][j] = rng.Float32()
			}
		}
		return out
	}
	sets, qs := [2][][]float32{vecs(64), vecs(93)}, vecs(16)
	srv := New(Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.CreateRegion(ctx, "plain", dims, wire.RegionConfig{}); err != nil {
		t.Fatal(err)
	}
	load := func(set [][]float32) {
		half := len(set) / 2
		if _, err := c.Load(ctx, "plain", set[:half]); err != nil {
			t.Fatalf("load: %v", err)
		}
		if _, err := c.LoadAppend(ctx, "plain", set[half:]); err != nil {
			t.Fatalf("append: %v", err)
		}
		if _, err := c.Build(ctx, "plain"); err != nil {
			t.Fatalf("build: %v", err)
		}
	}
	load(sets[0])
	refs := []*ssam.Region{referenceRegion(t, sets[0], dims), referenceRegion(t, sets[1], dims)}

	stop := make(chan struct{})
	wg := hammer(t, c, "plain", qs, k, stop, func(code int) bool {
		// Between a load and its build: refused at the gate, or dropped
		// by the reload mid-request.
		return code == http.StatusConflict || code == http.StatusInternalServerError
	}, refs...)
	for i := 1; i <= 100 && !t.Failed(); i++ {
		load(sets[i%2])
	}
	close(stop)
	wg.Wait()
	got, err := c.Search(ctx, "plain", qs[0], k)
	if want, _ := refs[0].Search(qs[0], k); err != nil || !sameNeighbors(got, want) {
		t.Fatalf("search after the reloads = (%v, %v), want %v", got, err, want)
	}
}

// inFlight32 issues 32 concurrent searches (every fourth a batch of
// one) and hands each outcome to check.
func inFlight32(t *testing.T, c *client.Client, region string, vecs [][]float32, k int, check func(qi int, resp wire.SearchResponse, err error)) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 != 3 {
				resp, err := c.SearchFull(ctx, region, vecs[i], k)
				check(i, resp, err)
				return
			}
			b, err := c.SearchBatchFull(ctx, region, [][]float32{vecs[i]}, k)
			resp := wire.SearchResponse{Degraded: b.Degraded, FailedShards: b.FailedShards}
			if err == nil {
				resp.Results = b.Results[0]
			}
			check(i, resp, err)
		}(i)
	}
	wg.Wait()
}

// TestAttemptPanicIsContained: a fault hook that panics inside one
// replica's (or one shard's) attempts, with 32 queries in flight, costs
// exactly what a failed attempt costs — a failover, a degraded answer,
// or a typed 500 — and never the process.
func TestAttemptPanicIsContained(t *testing.T) {
	const rows, dims, k = 96, 6, 5
	ctx := context.Background()

	t.Run("replicated", func(t *testing.T) {
		srv, _, c, vecs := replicatedFixture(t, "rep", wire.RegionConfig{
			Replicas: &wire.ReplicasConfig{Replicas: 3},
		}, rows, dims)
		ref := referenceRegion(t, vecs, dims)
		g, err := srv.regionGroup("rep")
		if err != nil {
			t.Fatal(err)
		}
		g.SetFaultHook(func(rep, _ int) error {
			if rep == 1 {
				panic("replica 1 blew up")
			}
			return nil
		})
		inFlight32(t, c, "rep", vecs, k, func(qi int, resp wire.SearchResponse, err error) {
			want, _ := ref.Search(vecs[qi], k)
			if err != nil || resp.Degraded || !sameNeighbors(resp.Results, want) {
				t.Errorf("query %d = (%+v, %v), want the exact answer, not degraded", qi, resp, err)
			}
		})
		if st := g.Stat(1); st.Errors == 0 {
			t.Fatal("replica 1 was never routed to: the panic path did not run")
		}
		if err := c.Health(ctx); err != nil {
			t.Fatalf("healthz: %v", err)
		}
	})

	for _, partial := range []bool{true, false} {
		name := map[bool]string{true: "sharded partial", false: "sharded strict"}[partial]
		t.Run(name, func(t *testing.T) {
			const shards, dead = 4, 2
			srv, c, vecs, cleanup := shardedFixture(t, shards, partial, rows, dims)
			defer cleanup()
			setShardHook(t, srv, "shardy", func(shard, _ int) error {
				if shard == dead {
					panic("shard 2 blew up")
				}
				return nil
			})
			inFlight32(t, c, "shardy", vecs, k, func(qi int, resp wire.SearchResponse, err error) {
				switch {
				case partial && (err != nil || !resp.Degraded || len(resp.FailedShards) != 1 || resp.FailedShards[0] != dead):
					t.Errorf("query %d = (%+v, %v), want degraded naming shard %d", qi, resp, err, dead)
				case !partial && statusOf(err) != http.StatusInternalServerError:
					t.Errorf("query %d = (%+v, %v), want a 500", qi, resp, err)
				}
			})
			// The process and the other shards are unaffected.
			setShardHook(t, srv, "shardy", nil)
			ref := referenceRegion(t, vecs, dims)
			got, err := c.Search(ctx, "shardy", vecs[0], k)
			if want, _ := ref.Search(vecs[0], k); err != nil || !sameNeighbors(got, want) {
				t.Fatalf("search after the panics = (%v, %v), want %v", got, err, want)
			}
		})
	}
}

// TestSearchBackendErrorIs500: with its only replica down a region's
// failure is the server's, on /search and /searchbatch alike; a batch
// with a query of the wrong width is still the client's.
func TestSearchBackendErrorIs500(t *testing.T) {
	const rows, dims, k = 32, 6, 3
	srv, _, c, vecs := replicatedFixture(t, "solo", wire.RegionConfig{
		Replicas: &wire.ReplicasConfig{Replicas: 1},
	}, rows, dims)
	ctx := context.Background()
	if err := srv.FailReplica("solo", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(ctx, "solo", vecs[0], k); statusOf(err) != http.StatusInternalServerError {
		t.Fatalf("/search with the only replica down: %v, want 500", err)
	}
	if _, err := c.SearchBatch(ctx, "solo", vecs[:2], k); statusOf(err) != http.StatusInternalServerError {
		t.Fatalf("/searchbatch with the only replica down: %v, want 500", err)
	}
	if err := srv.HealReplicas("solo"); err != nil {
		t.Fatal(err)
	}
	ragged := [][]float32{vecs[0], vecs[1][:dims-1]}
	if _, err := c.SearchBatch(ctx, "solo", ragged, k); statusOf(err) != http.StatusBadRequest {
		t.Fatalf("ragged /searchbatch: %v, want 400", err)
	}
}

// TestControlLosesRaceWithDelete: a load or build that looked its entry
// up before a DELETE won answers 404 on every backend kind. The entry is
// torn down while still registered, which is that race stopped at its
// worst instant. A load used to answer 400 on a plain region and 200 on
// a replicated one, whose Load only stages rows.
func TestControlLosesRaceWithDelete(t *testing.T) {
	const dims = 4
	srv := New(Options{})
	defer srv.Close()
	load := mustJSON(t, wire.LoadRequest{Vectors: [][]float32{{1, 2, 3, 4}, {4, 3, 2, 1}}})
	for name, cfg := range map[string]wire.RegionConfig{
		"plain":      {},
		"sharded":    {Sharding: &wire.ShardingConfig{Shards: 2}},
		"replicated": {Replicas: &wire.ReplicasConfig{Replicas: 2}},
	} {
		if rec := post(srv, "/regions", mustJSON(t, wire.CreateRegionRequest{Name: name, Dims: dims, Config: cfg})); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, rec.Code, rec.Body)
		}
		if rec := post(srv, "/regions/"+name+"/load", load); rec.Code != http.StatusOK {
			t.Fatalf("load %s: %d %s", name, rec.Code, rec.Body)
		}
		e, _ := srv.lookup(name)
		srv.teardown(e)
		for op, body := range map[string][]byte{"load": load, "build": nil} {
			if rec := post(srv, "/regions/"+name+"/"+op, body); rec.Code != http.StatusNotFound {
				t.Errorf("%s of a %s region torn down under it: status %d %s, want 404", op, name, rec.Code, rec.Body)
			}
		}
		srv.mu.Lock()
		delete(srv.regions, name) // torn down once already
		srv.mu.Unlock()
	}
}
