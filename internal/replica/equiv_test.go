package replica_test

// Equivalence property: a replica group is invisible to correctness.
// Whatever the metric, k, replica count, backend kind (region or
// sharded cluster), or which replica the router happens to pick —
// even while one replica is fault-injected dead — the answers must be
// bit-identical to a single unreplicated region over the same rows.
// The engine's total order (ascending distance, ties by ascending id)
// makes "bit-identical" well-defined.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ssam"
	"ssam/internal/cluster"
	"ssam/internal/replica"
)

// equivCorpus builds a deterministic float corpus.
func equivCorpus(rows, dims int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, rows*dims)
	for i := range data {
		data[i] = rng.Float32()
	}
	return data
}

// buildRegion loads and builds one plain region over data.
func buildRegion(t *testing.T, dims int, cfg ssam.Config, data []float32) *ssam.Region {
	t.Helper()
	r, err := ssam.New(dims, cfg)
	if err != nil {
		t.Fatalf("region: %v", err)
	}
	if err := r.LoadFloat32(data); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatalf("build: %v", err)
	}
	return r
}

// TestReplicatedBitIdenticalToSingle is the layer's property: across
// metrics x k, exact and quantized, a 3-replica group answers every
// query bit-identically to the single-replica backend, with and without
// one replica killed. The group searches a query as a batch of one and
// the reference region searches it alone, which on the quantized scan
// are different branches at some core counts.
func TestReplicatedBitIdenticalToSingle(t *testing.T) {
	const (
		rows     = 240
		dims     = 12
		replicas = 3
		queries  = 30
	)
	data := equivCorpus(rows, dims, 42)
	rng := rand.New(rand.NewSource(43))
	qs := make([][]float32, queries)
	for i := range qs {
		q := make([]float32, dims)
		for j := range q {
			q[j] = rng.Float32()
		}
		qs[i] = q
	}

	for _, metric := range []ssam.Metric{ssam.Euclidean, ssam.Manhattan, ssam.Cosine} {
		for _, cfg := range []ssam.Config{
			{Metric: metric},
			{Metric: metric, Mode: ssam.Quantized, Index: ssam.IndexParams{M: 4, Rerank: 16, Seed: 1}},
		} {
			for _, k := range []int{1, 5, 17} {
				ref := buildRegion(t, dims, cfg, data)

				g, err := replica.NewGroup(replica.Options{Replicas: replicas, Hedge: true, Seed: 0x5eed})
				if err != nil {
					t.Fatal(err)
				}
				_, err = g.Swap(func(int) (replica.Backend, error) {
					return replica.WrapRegion(buildRegion(t, dims, cfg, data)), nil
				}, qs[:2], k)
				if err != nil {
					t.Fatalf("swap: %v", err)
				}

				check := func(phase string) {
					for qi, q := range qs {
						want, _, err := ref.SearchStatsSpan(q, k, nil)
						if err != nil {
							t.Fatalf("reference search: %v", err)
						}
						got, err := g.Search(qs[qi:qi+1], k, nil)
						if err != nil {
							t.Fatalf("%s mode=%v metric=%v k=%d query %d: %v", phase, cfg.Mode, metric, k, qi, err)
						}
						if got.Degraded || len(got.FailedShards) != 0 {
							t.Fatalf("%s mode=%v metric=%v k=%d query %d degraded: %+v", phase, cfg.Mode, metric, k, qi, got)
						}
						if !reflect.DeepEqual(got.Results[0], want) {
							t.Fatalf("%s mode=%v metric=%v k=%d query %d (replica %d):\n got %v\nwant %v",
								phase, cfg.Mode, metric, k, qi, got.Replica, got.Results[0], want)
						}
					}
					// Batches route whole to one replica; same property.
					wantBatch := make([][]ssam.Result, len(qs))
					for i, q := range qs {
						wantBatch[i], _, _ = ref.SearchStatsSpan(q, k, nil)
					}
					gotBatch, err := g.Search(qs, k, nil)
					if err != nil {
						t.Fatalf("%s batch: %v", phase, err)
					}
					if !reflect.DeepEqual(gotBatch.Results, wantBatch) {
						t.Fatalf("%s batch diverged from reference", phase)
					}
				}

				check("healthy")
				// Kill replica 0: failover must keep answers identical.
				g.SetFaultHook(func(rep, _ int) error {
					if rep == 0 {
						return errors.New("injected kill")
					}
					return nil
				})
				check("one-replica-killed")

				g.Free()
				ref.Free()
			}
		}
	}
}

// TestReplicatedMutationsBitIdentical extends the property across
// writes: the same upsert/delete stream applied to a replica group
// and to a single region must leave searches bit-identical, no matter
// which replica answers.
func TestReplicatedMutationsBitIdentical(t *testing.T) {
	const (
		rows = 120
		dims = 8
		k    = 9
	)
	data := equivCorpus(rows, dims, 7)
	cfg := ssam.Config{}
	ref := buildRegion(t, dims, cfg, data)
	defer ref.Free()

	g, err := replica.NewGroup(replica.Options{Replicas: 3, Seed: 0xfeed})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	if _, err := g.Swap(func(int) (replica.Backend, error) {
		return replica.WrapRegion(buildRegion(t, dims, cfg, data)), nil
	}, nil, k); err != nil {
		t.Fatalf("swap: %v", err)
	}

	rng := rand.New(rand.NewSource(8))
	vec := func() []float32 {
		v := make([]float32, dims)
		for j := range v {
			v[j] = rng.Float32()
		}
		return v
	}
	// A write stream of fresh inserts, overwrites, and deletes.
	for i := 0; i < 40; i++ {
		switch i % 3 {
		case 0, 1:
			id, v := rng.Intn(rows+20), vec()
			wantSeq, err := ref.Upsert(id, v)
			if err != nil {
				t.Fatalf("reference upsert: %v", err)
			}
			gotSeq, err := g.Upsert(id, v)
			if err != nil {
				t.Fatalf("group upsert: %v", err)
			}
			if gotSeq != wantSeq {
				t.Fatalf("upsert seq %d, reference %d", gotSeq, wantSeq)
			}
		case 2:
			id := rng.Intn(rows + 20)
			wantSeq, wantHit, err := ref.Delete(id)
			if err != nil {
				t.Fatalf("reference delete: %v", err)
			}
			gotSeq, gotHit, err := g.Delete(id)
			if err != nil {
				t.Fatalf("group delete: %v", err)
			}
			if gotSeq != wantSeq || gotHit != wantHit {
				t.Fatalf("delete (%d,%v), reference (%d,%v)", gotSeq, gotHit, wantSeq, wantHit)
			}
		}
	}
	if _, err := g.CompactNow(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := ref.CompactNow(); err != nil {
		t.Fatalf("reference compact: %v", err)
	}

	for i := 0; i < 25; i++ {
		q := vec()
		want, _, err := ref.SearchStatsSpan(q, k, nil)
		if err != nil {
			t.Fatalf("reference search: %v", err)
		}
		got, err := g.Search([][]float32{q}, k, nil)
		if err != nil {
			t.Fatalf("group search: %v", err)
		}
		if !reflect.DeepEqual(got.Results[0], want) {
			t.Fatalf("post-mutation query %d diverged (replica %d):\n got %v\nwant %v",
				i, got.Replica, got.Results[0], want)
		}
	}
	if g.Len() != ref.Len() {
		t.Fatalf("group len %d, reference %d", g.Len(), ref.Len())
	}
}

// TestClusterBackendEquivalence covers the replicas-of-shards combo:
// each replica is itself a scatter-gather cluster, answers stay
// bit-identical to a plain region, and the immutable-backend contract
// turns writes into ssam.ErrImmutableEngine.
func TestClusterBackendEquivalence(t *testing.T) {
	const (
		rows   = 180
		dims   = 10
		shards = 3
		k      = 7
	)
	data := equivCorpus(rows, dims, 21)
	ref := buildRegion(t, dims, ssam.Config{}, data)
	defer ref.Free()

	g, err := replica.NewGroup(replica.Options{Replicas: 2, Seed: 0xcafe})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Free()
	if _, err := g.Swap(func(int) (replica.Backend, error) {
		c, err := cluster.New(dims, ssam.Config{}, cluster.Options{Shards: shards})
		if err != nil {
			return nil, err
		}
		if err := c.AdoptFloat32(data); err != nil {
			c.Free()
			return nil, err
		}
		if err := c.BuildIndex(); err != nil {
			c.Free()
			return nil, err
		}
		return replica.WrapCluster(c), nil
	}, nil, k); err != nil {
		t.Fatalf("swap: %v", err)
	}
	if g.Len() != rows {
		t.Fatalf("group len %d, want %d", g.Len(), rows)
	}

	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20; i++ {
		q := make([]float32, dims)
		for j := range q {
			q[j] = rng.Float32()
		}
		want, _, err := ref.SearchStatsSpan(q, k, nil)
		if err != nil {
			t.Fatalf("reference search: %v", err)
		}
		got, err := g.Search([][]float32{q}, k, nil)
		if err != nil {
			t.Fatalf("group search: %v", err)
		}
		if !reflect.DeepEqual(got.Results[0], want) {
			t.Fatalf("query %d diverged:\n got %v\nwant %v", i, got.Results[0], want)
		}
	}

	if _, err := g.Upsert(1, make([]float32, dims)); !errors.Is(err, ssam.ErrImmutableEngine) {
		t.Fatalf("upsert on sharded replicas: %v, want ErrImmutableEngine", err)
	}
	if _, _, err := g.Delete(1); !errors.Is(err, ssam.ErrImmutableEngine) {
		t.Fatalf("delete on sharded replicas: %v, want ErrImmutableEngine", err)
	}
	if _, err := g.CompactNow(); !errors.Is(err, ssam.ErrImmutableEngine) {
		t.Fatalf("compact on sharded replicas: %v, want ErrImmutableEngine", err)
	}
}
