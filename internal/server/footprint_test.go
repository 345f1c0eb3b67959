package server_test

// Footprint gate: what a served region costs in live heap, per region
// kind, as a multiple of its dataset's n·d·4 bytes. The entry's slab is
// the dataset's one copy — the plain region, every replica, every shard
// (each its contiguous range of rows) and a first write's mutable store
// all read it in place — so every kind but the storage-backed one (no
// copy at all) sits at one copy plus its index. A free gives it all
// back.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"ssam/internal/client"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

// liveHeap is the heap still reachable after full collections (two, so
// pooled objects that survived the first are gone too).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func TestFootprintPerRegionKind(t *testing.T) {
	if server.RaceEnabled {
		t.Skip("an allocation gate, not a race test: it reads the same under -race, ten times slower")
	}
	const n, dims, chunk, k = 8192, 128, 2048, 10
	rows, _ := testData(n, 0, dims)
	dataBytes := float64(n * dims * 4)

	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()

	for i, kind := range []struct {
		name   string
		cfg    wire.RegionConfig
		upsert bool
		bound  float64
	}{
		{name: "linear", bound: 1.10},
		{name: "linear after one upsert", upsert: true, bound: 1.35},
		{name: "quantized", cfg: wire.RegionConfig{Mode: "quantized", Index: wire.IndexParams{M: 8, Sample: 1024, Rerank: 32, Seed: 1}}, bound: 1.10},
		{name: "replicated 3", cfg: wire.RegionConfig{Replicas: &wire.ReplicasConfig{Replicas: 3}}, bound: 1.10},
		{name: "sharded 4", cfg: wire.RegionConfig{Sharding: &wire.ShardingConfig{Shards: 4}}, bound: 1.10},
		{name: "replicated 2 x sharded 3", cfg: wire.RegionConfig{
			Replicas: &wire.ReplicasConfig{Replicas: 2}, Sharding: &wire.ShardingConfig{Shards: 3},
		}, bound: 1.10},
		// Two vault pages of half the dataset each: a quarter budget holds
		// no page once a scan lets go of it.
		{name: "storage-backed, sub-page budget", cfg: wire.RegionConfig{Vaults: 2, Storage: &wire.StorageConfig{
			Path: filepath.Join(t.TempDir(), "fp.tier"), BudgetBytes: n * dims * 4 / 4,
		}}, bound: 0.10},
	} {
		t.Run(kind.name, func(t *testing.T) {
			region := fmt.Sprintf("fp%d", i) // a kind that fails leaves its region behind
			before := liveHeap()
			if _, err := c.CreateRegion(ctx, region, dims, kind.cfg); err != nil {
				t.Fatalf("create: %v", err)
			}
			for lo := 0; lo < n; lo += chunk {
				if _, err := c.LoadAppend(ctx, region, rows[lo:lo+chunk]); err != nil {
					t.Fatalf("load: %v", err)
				}
			}
			if _, err := c.Build(ctx, region); err != nil {
				t.Fatalf("build: %v", err)
			}
			if kind.upsert {
				if _, err := c.Upsert(ctx, region, []int{n}, rows[:1]); err != nil {
					t.Fatalf("upsert: %v", err)
				}
			}
			for i := 0; i < 8; i++ {
				if _, err := c.Search(ctx, region, rows[i*97], k); err != nil {
					t.Fatalf("search: %v", err)
				}
			}
			amp := float64(liveHeap()-before) / dataBytes
			t.Logf("%.3f x the dataset (bound %.2f)", amp, kind.bound)
			if amp > kind.bound {
				t.Errorf("holds %.3f x its dataset, want <= %.2f", amp, kind.bound)
			}
			if err := c.Free(ctx, region); err != nil {
				t.Fatalf("free: %v", err)
			}
			// DELETE gives the rows back: nothing the server keeps after a
			// free (a metric callback, say) may still reach the entry.
			if left := float64(liveHeap()-before) / dataBytes; left > 0.05 {
				t.Errorf("%.3f x its dataset still live after the free, want <= 0.05", left)
			}
		})
	}
	runtime.KeepAlive(rows)
}
