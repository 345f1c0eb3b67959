package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ssam"
	"ssam/internal/topk"
)

func randData(n, dims int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dims)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	return data
}

func buildCluster(t *testing.T, data []float32, dims int, cfg ssam.Config, opts Options) *Cluster {
	t.Helper()
	c, err := New(dims, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadFloat32(data); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return c
}

func buildRegion(t *testing.T, data []float32, dims int, cfg ssam.Config) *ssam.Region {
	t.Helper()
	r, err := ssam.New(dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadFloat32(data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestClusterRegionEquivalence is the exact-mode equivalence property:
// a Linear/Host cluster over N shards must answer every query with
// exactly the ids and distances of one unsharded region over the same
// dataset — for several metrics, shard counts, partitions, and k
// values including k larger than a shard and larger than the dataset.
func TestClusterRegionEquivalence(t *testing.T) {
	const dims, n = 12, 157 // odd n so round-robin shards are uneven
	data := randData(n, dims, 3)
	queries := make([][]float32, 20)
	for i := range queries {
		queries[i] = randData(1, dims, int64(100+i))
	}

	for _, metric := range []ssam.Metric{ssam.Euclidean, ssam.Manhattan, ssam.Cosine} {
		cfg := ssam.Config{Metric: metric}
		region := buildRegion(t, data, dims, cfg)
		for _, part := range []Partition{RoundRobin, HashRows} {
			for _, shards := range []int{1, 2, 4, 7} {
				cl := buildCluster(t, data, dims, cfg, Options{Shards: shards, Partition: part})
				if cl.Len() != n {
					t.Fatalf("%v/%v x%d: cluster lost rows: Len=%d want %d", metric, part, shards, cl.Len(), n)
				}
				for _, k := range []int{1, 5, 40, n + 10} { // 40 > 157/7 ≈ 23: k exceeds shard size
					for qi, q := range queries {
						want, err := region.Search(q, k)
						if err != nil {
							t.Fatal(err)
						}
						resp, err := cl.Search(q, k)
						if err != nil {
							t.Fatalf("%v/%v x%d k=%d: %v", metric, part, shards, k, err)
						}
						if resp.Degraded || len(resp.FailedShards) > 0 {
							t.Fatalf("%v/%v x%d k=%d: unexpected degradation %+v", metric, part, shards, k, resp)
						}
						assertSameResults(t, fmt.Sprintf("%v/%v x%d k=%d q%d", metric, part, shards, k, qi), resp.Results, want)
					}
				}
				cl.Free()
			}
		}
		region.Free()
	}
}

// TestClusterEquivalenceEmptyShards covers more shards than rows:
// the surplus shards hold nothing and must not affect results.
func TestClusterEquivalenceEmptyShards(t *testing.T) {
	const dims, n = 6, 5
	data := randData(n, dims, 9)
	cfg := ssam.Config{}
	region := buildRegion(t, data, dims, cfg)
	defer region.Free()
	cl := buildCluster(t, data, dims, cfg, Options{Shards: 7})
	defer cl.Free()

	q := randData(1, dims, 77)
	for _, k := range []int{1, 3, n, n + 4} {
		want, err := region.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cl.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("empty-shards k=%d", k), resp.Results, want)
	}
}

func assertSameResults(t *testing.T, label string, got, want []ssam.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Fatalf("%s: result %d = {%d %v}, want {%d %v}",
				label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestClusterBatchEquivalence: the batch path must agree with the
// single-query path.
func TestClusterBatchEquivalence(t *testing.T) {
	const dims, n, k = 8, 120, 7
	data := randData(n, dims, 5)
	cl := buildCluster(t, data, dims, ssam.Config{}, Options{Shards: 4})
	defer cl.Free()

	qs := make([][]float32, 9)
	for i := range qs {
		qs[i] = randData(1, dims, int64(500+i))
	}
	batch, err := cl.SearchBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Degraded {
		t.Fatalf("unexpected degradation: %+v", batch)
	}
	for i, q := range qs {
		single, err := cl.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("batch query %d", i), batch.Results[i], single.Results)
	}
}

// TestClusterPartialDegradation kills one shard via the fault hook:
// with AllowPartial the query degrades to the survivors' merge; the
// merged results must equal a region over the surviving rows.
func TestClusterPartialDegradation(t *testing.T) {
	const dims, n, shards, k = 10, 90, 3, 8
	data := randData(n, dims, 11)
	cl := buildCluster(t, data, dims, ssam.Config{}, Options{Shards: shards, AllowPartial: true})
	defer cl.Free()

	const dead = 1
	cl.SetFaultHook(func(shard, attempt int) error {
		if shard == dead {
			return errors.New("injected shard crash")
		}
		return nil
	})

	// Survivors under round-robin: rows with i % shards != dead.
	var surviving []float32
	var survivingIDs []int
	for i := 0; i < n; i++ {
		if i%shards != dead {
			surviving = append(surviving, data[i*dims:(i+1)*dims]...)
			survivingIDs = append(survivingIDs, i)
		}
	}
	ref := buildRegion(t, surviving, dims, ssam.Config{})
	defer ref.Free()

	q := randData(1, dims, 321)
	resp, err := cl.Search(q, k)
	if err != nil {
		t.Fatalf("partial-mode search failed outright: %v", err)
	}
	if !resp.Degraded {
		t.Fatalf("response not flagged Degraded: %+v", resp)
	}
	if len(resp.FailedShards) != 1 || resp.FailedShards[0] != dead {
		t.Fatalf("FailedShards = %v, want [%d]", resp.FailedShards, dead)
	}
	want, err := ref.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].ID = survivingIDs[want[i].ID]
	}
	assertSameResults(t, "degraded merge", resp.Results, want)

	// Without AllowPartial the same failure must fail the query.
	strict := buildCluster(t, data, dims, ssam.Config{}, Options{Shards: shards})
	defer strict.Free()
	strict.SetFaultHook(func(shard, attempt int) error {
		if shard == dead {
			return errors.New("injected shard crash")
		}
		return nil
	})
	if _, err := strict.Search(q, k); err == nil {
		t.Fatal("strict cluster returned success with a dead shard")
	}

	// All shards dead is an error even in partial mode.
	cl.SetFaultHook(func(int, int) error { return errors.New("total outage") })
	if _, err := cl.Search(q, k); err == nil {
		t.Fatal("partial cluster returned success with every shard dead")
	}
}

// handTimers is the cluster's hedge/deadline timer seam in the test's
// hands: a timer of duration hot is born expired, any other fires only
// when the test says so, and wall time decides nothing.
type handTimers struct {
	hot   time.Duration
	mu    sync.Mutex
	armed map[time.Duration][]chan time.Time
}

func (h *handTimers) install(c *Cluster) {
	h.armed = make(map[time.Duration][]chan time.Time)
	c.racer.Timer = func(d time.Duration) (<-chan time.Time, func() bool) {
		ch := make(chan time.Time, 1)
		if d == h.hot {
			ch <- time.Time{}
		}
		h.mu.Lock()
		h.armed[d] = append(h.armed[d], ch)
		h.mu.Unlock()
		return ch, func() bool { return true }
	}
}

// fire expires every timer of duration d armed so far.
func (h *handTimers) fire(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ch := range h.armed[d] {
		select {
		case ch <- time.Time{}:
		default:
		}
	}
}

// TestClusterShardDeadline wedges one shard past the deadline: partial
// mode degrades with the shard counted as a timeout.
func TestClusterShardDeadline(t *testing.T) {
	const dims, n, shards, k = 6, 60, 3, 5
	data := randData(n, dims, 13)
	cl := buildCluster(t, data, dims, ssam.Config{}, Options{
		Shards: shards, AllowPartial: true, ShardDeadline: 20 * time.Millisecond,
	})
	defer cl.Free()
	var timers handTimers
	timers.install(cl)

	release := make(chan struct{})
	defer close(release)
	wedged := make(chan struct{})
	cl.SetFaultHook(func(shard, attempt int) error {
		if shard == 2 {
			close(wedged)
			<-release
		}
		return nil
	})
	go func() {
		// The deadline passes once shard 2 is stuck and the healthy
		// shards have answered.
		<-wedged
		for cl.ShardStat(0).Queries == 0 || cl.ShardStat(1).Queries == 0 {
			runtime.Gosched()
		}
		timers.fire(20 * time.Millisecond)
	}()

	q := randData(1, dims, 654)
	start := time.Now()
	resp, err := cl.Search(q, k)
	if err != nil {
		t.Fatalf("deadline search: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the query: took %v", elapsed)
	}
	if !resp.Degraded || len(resp.FailedShards) != 1 || resp.FailedShards[0] != 2 {
		t.Fatalf("expected shard 2 timed out, got %+v", resp)
	}
	if len(resp.Results) == 0 {
		t.Fatal("degraded response carries no results")
	}
	st := cl.ShardStats()[2]
	if st.Timeouts == 0 || st.Failures == 0 {
		t.Fatalf("shard 2 stats missing the timeout: %+v", st)
	}
}

// TestClusterHedging makes shard 0's primary attempt hang; the hedge
// re-issue must answer the query without degradation.
func TestClusterHedging(t *testing.T) {
	const dims, n, shards, k = 6, 60, 2, 4
	data := randData(n, dims, 17)
	cl := buildCluster(t, data, dims, ssam.Config{}, Options{
		Shards: shards, HedgeAfter: 5 * time.Millisecond, ShardDeadline: 10 * time.Second,
	})
	defer cl.Free()
	(&handTimers{hot: 5 * time.Millisecond}).install(cl)

	release := make(chan struct{})
	defer close(release)
	cl.SetFaultHook(func(shard, attempt int) error {
		if shard == 0 && attempt == 0 {
			<-release // primary straggles until test end
		}
		return nil
	})

	q := randData(1, dims, 987)
	resp, err := cl.Search(q, k)
	if err != nil {
		t.Fatalf("hedged search: %v", err)
	}
	if resp.Degraded {
		t.Fatalf("hedged search degraded: %+v", resp)
	}
	if resp.Hedges == 0 {
		t.Fatal("no hedge was issued for the straggling shard")
	}
	if cl.ShardStats()[0].Hedges == 0 {
		t.Fatal("shard 0 hedge counter not incremented")
	}

	want := buildRegion(t, data, dims, ssam.Config{})
	defer want.Free()
	ref, err := want.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "hedged", resp.Results, ref)
}

// TestClusterHedgeOutlivesFailedPrimary: when the primary attempt
// errors while a hedge is in flight, the hedge's success must win.
func TestClusterHedgeOutlivesFailedPrimary(t *testing.T) {
	const dims, n, k = 6, 40, 3
	data := randData(n, dims, 23)
	cl := buildCluster(t, data, dims, ssam.Config{}, Options{
		Shards: 2, HedgeAfter: 2 * time.Millisecond,
	})
	defer cl.Free()
	(&handTimers{hot: 2 * time.Millisecond}).install(cl)

	hedged := make(chan struct{})
	cl.SetFaultHook(func(shard, attempt int) error {
		if shard != 0 {
			return nil
		}
		if attempt == 0 {
			<-hedged // hold the primary until the hedge has launched
			return errors.New("primary died")
		}
		close(hedged)
		return nil
	})

	resp, err := cl.Search(randData(1, dims, 55), k)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if resp.Degraded || len(resp.Results) == 0 {
		t.Fatalf("hedge success did not rescue the shard: %+v", resp)
	}
}

// TestClusterDeviceStatsAggregation checks the Fig. 9 scaling story:
// device shards report per-shard stats, combined latency is the
// slowest shard, and work sums across modules.
func TestClusterDeviceStatsAggregation(t *testing.T) {
	const dims, n, shards, k = 8, 128, 4, 3
	data := randData(n, dims, 29)
	cfg := ssam.Config{Execution: ssam.Device}
	cl := buildCluster(t, data, dims, cfg, Options{Shards: shards})
	defer cl.Free()

	q := randData(1, dims, 61)
	if _, err := cl.Search(q, k); err != nil {
		t.Fatal(err)
	}
	st := cl.LastStats()
	if len(st.PerShard) != shards {
		t.Fatalf("PerShard has %d entries, want %d", len(st.PerShard), shards)
	}
	var maxCycles, sumInsts uint64
	var sumPUs int
	for si, s := range st.PerShard {
		if s.Cycles == 0 || s.Instructions == 0 {
			t.Fatalf("shard %d reported no device execution: %+v", si, s)
		}
		if s.Cycles > maxCycles {
			maxCycles = s.Cycles
		}
		sumInsts += s.Instructions
		sumPUs += s.ProcessingUnits
	}
	if st.Combined.Cycles != maxCycles {
		t.Fatalf("Combined.Cycles = %d, want max shard %d", st.Combined.Cycles, maxCycles)
	}
	if st.Combined.Instructions != sumInsts {
		t.Fatalf("Combined.Instructions = %d, want sum %d", st.Combined.Instructions, sumInsts)
	}
	if st.Combined.ProcessingUnits != sumPUs {
		t.Fatalf("Combined.ProcessingUnits = %d, want sum %d", st.Combined.ProcessingUnits, sumPUs)
	}
	if st.Throughput() <= 0 {
		t.Fatal("Throughput not positive for a device cluster")
	}

	// Equivalence holds on device shards too (same fixed-point
	// pipeline per shard): compare against a single device region.
	region := buildRegion(t, data, dims, cfg)
	defer region.Free()
	want, err := region.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "device equivalence", resp.Results, want)
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(4, ssam.Config{}, Options{Shards: 0}); err == nil {
		t.Fatal("New accepted zero shards")
	}
	if _, err := New(4, ssam.Config{Metric: ssam.Hamming, Mode: ssam.Linear}, Options{Shards: 2}); err == nil {
		t.Fatal("New accepted a Hamming config")
	}
	if _, err := New(4, ssam.Config{Metric: ssam.Metric(99)}, Options{Shards: 2}); err == nil {
		t.Fatal("New accepted an invalid metric")
	}
	c, err := New(4, ssam.Config{}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search([]float32{1, 2, 3, 4}, 1); err == nil {
		t.Fatal("Search before load/build succeeded")
	}
	if err := c.LoadFloat32([]float32{1, 2, 3}); err == nil {
		t.Fatal("LoadFloat32 accepted a ragged dataset")
	}
	c.Free()
	if err := c.LoadFloat32(make([]float32, 8)); !errors.Is(err, ssam.ErrFreed) {
		t.Fatalf("load after Free = %v, want ErrFreed", err)
	}
}

func BenchmarkClusterSearch(b *testing.B) {
	const dims, n, k = 32, 4096, 10
	data := randData(n, dims, 41)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := New(dims, ssam.Config{}, Options{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Free()
			if err := c.LoadFloat32(data); err != nil {
				b.Fatal(err)
			}
			if err := c.BuildIndex(); err != nil {
				b.Fatal(err)
			}
			q := randData(1, dims, 43)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Search(q, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mergeSortedRef guards against regressions in the merge the cluster
// depends on: merging shard lists must equal sorting the union.
func TestMergeSortedMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 50; trial++ {
		var union []topk.Result
		var lists [][]topk.Result
		id := 0
		for s := 0; s < 4; s++ {
			var l []topk.Result
			for i := 0; i < rng.Intn(8); i++ {
				r := topk.Result{ID: id, Dist: float64(rng.Intn(5))}
				id++
				l = append(l, r)
				union = append(union, r)
			}
			topk.SortResults(l)
			lists = append(lists, l)
		}
		k := 1 + rng.Intn(6)
		got := topk.MergeSorted(k, lists...)
		topk.SortResults(union)
		want := union
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}
