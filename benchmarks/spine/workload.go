package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/server/wire"
)

// workload is one traffic mix against one region configuration.
type workload struct {
	name string
	why  string
	cfg  wire.RegionConfig
	// clients is the closed-loop client count, a constant of the
	// workload: each client holds one connection and waits for its reply
	// before sending the next request, because that is what callers of
	// this API do. Never more than the two cores of the box the bounds
	// were measured on.
	clients int
	// batch > 0 sends that many queries per request to /searchbatch
	// (bypassing the micro-batcher); 0 sends single queries to /search.
	batch int
	// upsertFrac and deleteFrac turn that share of operations into
	// single-row writes; the rest are searches.
	upsertFrac, deleteFrac float64
	// recallFloor is the recall@k below which the run is incorrect:
	// exactly 1 for the exact engines.
	recallFloor float64
}

var linearCfg = wire.RegionConfig{Metric: "euclidean", Mode: "linear", Execution: "host"}

var workloads = []workload{
	{
		name:    "linear_single",
		why:     "exact scan, one query per request, 2 closed-loop clients: the floor under every mode; vec+knn+topk do most of the work and the batcher adds its 2 ms window",
		cfg:     linearCfg,
		clients: 2, recallFloor: 1,
	},
	{
		name:    "linear_batch16",
		why:     "same region, 16 queries per /searchbatch request, 1 client: bypasses the batcher and runs Region.SearchBatch, where a query-tiled scan would show and nowhere else",
		cfg:     linearCfg,
		clients: 1, batch: 16, recallFloor: 1,
	},
	{
		name: "pq_single",
		why:  "product-quantized scan (M=8, rerank 1000), 2 clients: the engine takes ~2 ms, so batcher window, wire JSON and handler cost are the largest share of latency",
		cfg: wire.RegionConfig{
			Metric: "euclidean", Mode: "quantized", Execution: "host",
			Index: wire.IndexParams{M: 8, Rerank: 1000, Seed: 1},
		},
		clients: 2, recallFloor: 0.95,
	},
	{
		name:    "mixed_rw",
		why:     "80% search, 15% upsert, 5% delete on a linear region, 2 clients: the scan kernels through the RCU snapshot, tombstones and compactor, so a read gain that costs writes shows",
		cfg:     linearCfg,
		clients: 2, upsertFrac: 0.15, deleteFrac: 0.05, recallFloor: 1,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) mutates() bool { return w.upsertFrac+w.deleteFrac > 0 }

// scale fixes the sizes of a run. Everything a result depends on is
// here and is echoed in the result's envelope.
type scale struct {
	N, Dims, Clusters, K int
	Queries              int // held-out queries the load phase draws from
	Verify               int // first Verify queries are checked against the oracle
	Pool                 int // held-out vectors that upserts draw from
	Chunk                int // rows per load request
	Warmup               time.Duration
	Window               time.Duration // target window length
}

var fullScale = scale{
	N: 50000, Dims: 128, Clusters: 64, K: 10,
	Queries: 2048, Verify: 256, Pool: 4096, Chunk: 5000,
	Warmup: time.Second, Window: 500 * time.Millisecond,
}

// smokeScale runs every code path in well under a second per workload;
// its numbers mean nothing.
var smokeScale = scale{
	N: 2000, Dims: 16, Clusters: 8, K: 10,
	Queries: 64, Verify: 32, Pool: 64, Chunk: 500,
	Warmup: 20 * time.Millisecond, Window: 150 * time.Millisecond,
}

// idSpace is the exclusive upper bound of row ids a mutating workload
// writes: a tenth above the loaded rows, so upserts both replace and
// insert and deletes both hit and miss.
func (sc scale) idSpace() int { return sc.N + sc.N/10 }

// inputs is everything generated from the seed; the program under
// test only ever sees these.
type inputs struct {
	sc      scale
	data    []float32   // N rows of Dims
	queries [][]float32 // Queries held-out vectors
	pool    [][]float32 // Pool held-out vectors for upserts
}

func generate(sc scale, seed int64) *inputs {
	ds := dataset.Generate(dataset.Spec{
		Name: "spine", N: sc.N, Dim: sc.Dims, NumQueries: sc.Queries + sc.Pool,
		K: sc.K, Clusters: sc.Clusters, ClusterStd: 0.3, Seed: seed,
	})
	return &inputs{sc: sc, data: ds.Data, queries: ds.Queries[:sc.Queries], pool: ds.Queries[sc.Queries:]}
}

func (in *inputs) row(i int) []float32 { return in.data[i*in.sc.Dims : (i+1)*in.sc.Dims] }

type opKind uint8

const (
	opSearch opKind = iota
	opUpsert
	opDelete
)

// op is one request of a client's stream. query indexes inputs.queries
// (a batch takes the next batch-1 queries after it, wrapping); id and
// pool name the row a write touches and the vector an upsert carries.
type op struct {
	kind  opKind
	query int
	id    int
	pool  int
}

// opStream yields one client's requests. It is a pure function of
// (seed, phase, client, workload mix): the same seed replays the same
// stream, and client c of nClients only ever writes ids congruent to c,
// so concurrent clients never race on a row and the final state is the
// union of what each did.
type opStream struct {
	rng      *rand.Rand
	w        workload
	sc       scale
	client   int
	nClients int
}

func newOpStream(w workload, sc scale, seed int64, phase, client, nClients int) *opStream {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []int64{seed, int64(phase), int64(client)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return &opStream{
		rng: rand.New(rand.NewSource(int64(h.Sum64()))),
		w:   w, sc: sc, client: client, nClients: nClients,
	}
}

func (s *opStream) next() op {
	r := s.rng.Float64()
	switch {
	case r < s.w.upsertFrac:
		return op{kind: opUpsert, id: s.ownID(), pool: s.rng.Intn(s.sc.Pool)}
	case r < s.w.upsertFrac+s.w.deleteFrac:
		return op{kind: opDelete, id: s.ownID()}
	}
	return op{kind: opSearch, query: s.rng.Intn(s.sc.Queries)}
}

func (s *opStream) ownID() int {
	slots := (s.sc.idSpace() - s.client + s.nClients - 1) / s.nClients
	return s.client + s.nClients*s.rng.Intn(slots)
}

// streamHash digests the first count operations of every client's
// stream, the fingerprint the determinism test and the envelope carry.
func streamHash(w workload, sc scale, seed int64, count int) string {
	h := fnv.New64a()
	n := w.clients
	for c := 0; c < n; c++ {
		s := newOpStream(w, sc, seed, 0, c, n)
		for i := 0; i < count; i++ {
			o := s.next()
			fmt.Fprintf(h, "%d/%d/%d/%d;", o.kind, o.query, o.id, o.pool)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// model is one client's record of the writes it committed: the last
// state of every id it touched. -1 marks a deleted id, any other value
// indexes inputs.pool.
type model map[int]int

const modelDeleted = -1

func (m model) apply(o op) {
	switch o.kind {
	case opUpsert:
		m[o.id] = o.pool
	case opDelete:
		m[o.id] = modelDeleted
	}
}

// liveRows replays the clients' models over the loaded dataset and
// returns the rows a quiesced region must now hold, ids ascending.
func (in *inputs) liveRows(models []model) (ids []int, rows [][]float32) {
	merged := model{}
	for _, m := range models {
		for id, v := range m {
			merged[id] = v
		}
	}
	for id := 0; id < in.sc.idSpace(); id++ {
		state, touched := merged[id]
		switch {
		case touched && state == modelDeleted:
		case touched:
			ids, rows = append(ids, id), append(rows, in.pool[state])
		case id < in.sc.N:
			ids, rows = append(ids, id), append(rows, in.row(id))
		}
	}
	return ids, rows
}
