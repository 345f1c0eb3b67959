// Package mutate gives the linear engines a write path: an RCU-style
// mutable vector store supporting Upsert and Delete under live search
// traffic. The paper's target applications are write-heavy — InfiniTAM's
// loop-closure database interleaves an insert with a findMostSimilar on
// every frame, and NCAM (arXiv:1606.03742) motivates near-data search
// precisely for datasets that churn faster than they can be re-shipped —
// but the load-then-search engines of internal/knn cannot take a write
// without a full rebuild. This package closes that gap for the three
// linear engines (float32, 32-bit fixed point, Hamming codes).
//
// Design:
//
//   - Reads are lock-free. The store publishes an immutable snapshot
//     behind an atomic pointer; every Search loads the pointer once and
//     scans that generation to completion, so an in-flight query never
//     observes a half-applied mutation, and concurrent vault-parallel
//     results are bit-identical to a serial scan of the same generation.
//
//   - Writes are copy-on-write. A mutation clones only the per-vault
//     metadata it touches (a tombstone bitmap copy for a delete; an
//     append for an insert — appends extend slabs past every published
//     snapshot's length, which is the classic RCU append and never
//     races a reader), bumps the store's monotonic sequence number, and
//     publishes the next snapshot. One writer mutex serializes
//     mutations; readers never take it.
//
//   - Deletes are tombstones. A deleted row stays physically resident,
//     marked dead, until the background compactor (compact.go) rewrites
//     vaults whose garbage fraction passes a threshold and rebalances
//     vault sizes. Compaction changes physical layout only — never ids,
//     distances, or the sequence number — so it is invisible to search
//     results by construction.
//
// Results carry external ids (the id given to Upsert), and the top-k
// total order is (distance, then external id) — independent of physical
// row placement. That is the property the equivalence tests pin: after
// any mutation sequence, Search over the store is bit-identical to a
// fresh store (or fresh linear region) built from the surviving rows,
// even mid-compaction.
package mutate

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Options tunes a Store. Zero values select the defaults.
type Options struct {
	// Vaults is the physical partition count (and the intra-query scan
	// parallelism, mirroring the paper's per-vault accelerators). <= 0
	// selects knn.DefaultVaults; values above knn.MaxVaults clamp.
	Vaults int
	// SerialBelow is the scan size (physical rows times queries of the
	// call) under which a search scans serially regardless of the vault
	// count (default knn.DefaultSerialThreshold; negative forces the
	// parallel path).
	SerialBelow int
	// GarbageThreshold is the per-vault dead fraction (dead / physical)
	// at which a compaction pass rewrites the vault (default 0.3).
	GarbageThreshold float64
	// RebalanceFactor triggers a full rebalance when the largest vault
	// holds more than RebalanceFactor times the mean physical rows per
	// vault (default 2.0; values <= 1 keep the default).
	RebalanceFactor float64
}

func (o Options) fill() Options {
	if o.Vaults <= 0 {
		o.Vaults = knn.DefaultVaults()
	}
	if o.Vaults > knn.MaxVaults {
		o.Vaults = knn.MaxVaults
	}
	if o.SerialBelow == 0 {
		o.SerialBelow = knn.DefaultSerialThreshold
	}
	if o.SerialBelow < 0 {
		o.SerialBelow = 0
	}
	if o.GarbageThreshold <= 0 {
		o.GarbageThreshold = 0.3
	}
	if o.RebalanceFactor <= 1 {
		o.RebalanceFactor = 2.0
	}
	return o
}

// loc addresses one physical row in the latest snapshot.
type loc struct {
	vault, row int
}

// vaultShard is one vault's immutable view within a snapshot. The
// slices are never written in place at an index a published snapshot
// can see: deletes copy the tombstone bitmap, inserts append past
// every published length, compaction swaps in fresh slices.
type vaultShard[V any] struct {
	rows  []V    // per-row vectors; each row is immutable once stored
	ids   []int  // external id per row
	dead  []bool // tombstone marks
	deadN int    // tombstones in this vault
}

// snapshot is one immutable generation of the store.
type snapshot[V any] struct {
	seq    uint64 // mutation sequence number at publish
	vaults []vaultShard[V]
	live   int // surviving rows
	dead   int // tombstoned rows still physically present
}

// StoreStats is a point-in-time view of a store's mutation state.
type StoreStats struct {
	Seq           uint64 // last committed mutation sequence number
	Live          int    // surviving rows
	Dead          int    // tombstones not yet compacted away
	Upserts       uint64 // committed upserts
	Deletes       uint64 // committed deletes (misses excluded)
	CompactPasses uint64 // compaction passes that ran (including no-ops)
	VaultRewrites uint64 // vaults rewritten to drop tombstones
	Rebalances    uint64 // full rebalance rewrites
	GarbageRatio  float64
}

// Store is a mutable vector store over rows of type V ([]float32,
// []int32, or vec.Binary — see NewFloat, NewFixed, NewBinary). All
// methods are safe for concurrent use; Search never blocks on writers.
type Store[V any] struct {
	opts  Options
	dim   int           // for Stats.Dims accounting and error text
	check func(V) error // row validation (width, finiteness is wire's job)
	clone func(V) V     // defensive copy on insert
	// prep readies a query batch for scanning: the function it returns
	// starts one scan of the batch, retaining the k closest rows offered
	// for each query. A serial search runs one scan, a vault-parallel
	// search one per vault.
	prep func(qs []V, k int) func() scan[V]

	snap atomic.Pointer[snapshot[V]]

	mu    sync.Mutex  // serializes writers: Upsert, Delete, compaction
	index map[int]loc // external id -> physical location, latest snapshot

	seq      atomic.Uint64
	upserts  atomic.Uint64
	deletes  atomic.Uint64
	passes   atomic.Uint64
	rewrites atomic.Uint64
	rebals   atomic.Uint64

	// OnCompact, when non-nil, is invoked after every compaction pass
	// that changed the layout (vault rewrites or a rebalance). Set it
	// before StartCompactor; it runs on the compactor goroutine (or the
	// CompactOnce caller).
	OnCompact func(CompactResult)

	compactOnce sync.Once
	stopOnce    sync.Once
	stop        chan struct{}
	done        chan struct{}
}

// NewFloat returns a store over []float32 rows of the given
// dimensionality under metric (Euclidean, Manhattan or Cosine), the
// mutable counterpart of knn.Engine.
func NewFloat(dim int, metric vec.Metric, opts Options) *Store[[]float32] {
	if dim <= 0 {
		panic("mutate: dim must be positive")
	}
	switch metric {
	case vec.Euclidean, vec.Manhattan, vec.Cosine:
	default:
		panic(fmt.Sprintf("mutate: NewFloat does not support metric %v", metric))
	}
	return newStore[[]float32](dim, opts,
		func(v []float32) error {
			if len(v) != dim {
				return fmt.Errorf("mutate: row dim %d, want %d", len(v), dim)
			}
			for _, x := range v {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					return fmt.Errorf("mutate: row contains a non-finite value")
				}
			}
			return nil
		},
		func(v []float32) []float32 { return append([]float32(nil), v...) },
		// knn.Engine's scan: queries widened once, live rows gathered
		// four at a time and scored against the whole batch.
		func(qs [][]float32, k int) func() scan[[]float32] {
			t := vec.NewTile(metric, qs)
			return func() scan[[]float32] { return knn.NewTileScan(t, k) }
		},
	)
}

// NewFixed returns a store over Q16.16 fixed-point rows, the mutable
// counterpart of knn.FixedEngine. metric must be vec.Euclidean or
// vec.Manhattan (the metrics with fixed-point kernels); distances are
// raw fixed-point units, matching the engine.
func NewFixed(dim int, metric vec.Metric, opts Options) *Store[[]int32] {
	if dim <= 0 {
		panic("mutate: dim must be positive")
	}
	dist := vec.SquaredL2Fixed
	switch metric {
	case vec.Euclidean:
	case vec.Manhattan:
		dist = vec.L1Fixed
	default:
		panic("mutate: fixed-point store supports euclidean and manhattan only")
	}
	return newStore[[]int32](dim, opts,
		func(v []int32) error {
			if len(v) != dim {
				return fmt.Errorf("mutate: row dim %d, want %d", len(v), dim)
			}
			return nil
		},
		func(v []int32) []int32 { return append([]int32(nil), v...) },
		perQuery(dim, func(q, row []int32) float64 { return float64(dist(q, row)) }),
	)
}

// NewBinary returns a store over bit-packed Hamming codes of the given
// width, the mutable counterpart of knn.HammingEngine.
func NewBinary(bits int, opts Options) *Store[vec.Binary] {
	if bits <= 0 {
		panic("mutate: bits must be positive")
	}
	return newStore[vec.Binary](bits, opts,
		func(v vec.Binary) error {
			if v.Dim != bits {
				return fmt.Errorf("mutate: code width %d, want %d", v.Dim, bits)
			}
			return nil
		},
		func(v vec.Binary) vec.Binary {
			return vec.Binary{Dim: v.Dim, Words: append([]uint64(nil), v.Words...)}
		},
		perQuery(bits, func(q, row vec.Binary) float64 { return float64(vec.Hamming(q, row)) }),
	)
}

// scan is one pass over rows for a batch of queries: live rows are
// offered with their ids, and Results returns each query's neighbours
// with the pass's work accounting. knn.TileScan is the float store's.
type scan[V any] interface {
	Offer(id int, row V)
	Results() ([][]topk.Result, knn.Stats)
}

// pairScan is the scan of a two-vector distance: each row is scored
// against the queries one at a time.
type pairScan[V any] struct {
	*knn.Selectors
	qs   []V
	dist func(q, row V) float64
	dim  int
}

func (p *pairScan[V]) Offer(id int, row V) {
	for j, q := range p.qs {
		p.Dists[j] = p.dist(q, row)
	}
	p.Selectors.Offer([]int{id}, p.dim)
}

func (p *pairScan[V]) Results() ([][]topk.Result, knn.Stats) {
	return p.Selectors.Results(), p.Stats
}

func perQuery[V any](dim int, dist func(q, row V) float64) func([]V, int) func() scan[V] {
	return func(qs []V, k int) func() scan[V] {
		return func() scan[V] {
			return &pairScan[V]{Selectors: knn.NewSelectors(len(qs), k, 1), qs: qs, dist: dist, dim: dim}
		}
	}
}

func newStore[V any](dim int, opts Options, check func(V) error, clone func(V) V, prep func([]V, int) func() scan[V]) *Store[V] {
	s := &Store[V]{
		opts:  opts.fill(),
		dim:   dim,
		check: check,
		clone: clone,
		prep:  prep,
		index: make(map[int]loc),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.snap.Store(&snapshot[V]{vaults: make([]vaultShard[V], s.opts.Vaults)})
	return s
}

// Seed bulk-loads rows with the given external ids as generation 0,
// partitioned into contiguous vault chunks exactly like the immutable
// engines — a seeded store answers queries bit-identically to
// knn.NewEngineVaults over the same data when ids are 0..n-1. Seed is
// only valid on an empty store (no prior Seed or mutation) and does not
// advance the sequence number: the seed is the dataset the first
// mutation mutates.
func (s *Store[V]) Seed(ids []int, rows []V) error {
	if len(ids) != len(rows) {
		return fmt.Errorf("mutate: %d ids for %d rows", len(ids), len(rows))
	}
	for _, v := range rows {
		if err := s.check(v); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.index) > 0 || s.seq.Load() != 0 {
		return fmt.Errorf("mutate: Seed on a non-empty store")
	}
	vaults := make([]vaultShard[V], s.opts.Vaults)
	n := len(rows)
	chunk := (n + s.opts.Vaults - 1) / s.opts.Vaults
	for v := range vaults {
		lo := v * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			continue
		}
		vs := vaultShard[V]{
			rows: make([]V, 0, hi-lo),
			ids:  make([]int, 0, hi-lo),
			dead: make([]bool, hi-lo),
		}
		for i := lo; i < hi; i++ {
			id := ids[i]
			if id < 0 {
				return fmt.Errorf("mutate: negative id %d", id)
			}
			if _, dup := s.index[id]; dup {
				return fmt.Errorf("mutate: duplicate id %d in seed", id)
			}
			vs.rows = append(vs.rows, s.clone(rows[i]))
			vs.ids = append(vs.ids, id)
			s.index[id] = loc{v, len(vs.ids) - 1}
		}
		vaults[v] = vs
	}
	s.snap.Store(&snapshot[V]{vaults: vaults, live: n})
	return nil
}

// Upsert inserts row v under id, replacing (tombstoning) any existing
// row with the same id, and returns the mutation's committed sequence
// number. The row is copied; the caller may reuse v.
func (s *Store[V]) Upsert(id int, v V) (uint64, error) {
	if id < 0 {
		return 0, fmt.Errorf("mutate: negative id %d", id)
	}
	if err := s.check(v); err != nil {
		return 0, err
	}
	row := s.clone(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	vaults := append([]vaultShard[V](nil), cur.vaults...)
	live, dead := cur.live, cur.dead
	if l, ok := s.index[id]; ok {
		tombstone(&vaults[l.vault], l.row)
		live--
		dead++
	}
	t := targetVault(vaults)
	vs := &vaults[t]
	vs.rows = append(vs.rows, row)
	vs.ids = append(vs.ids, id)
	vs.dead = append(vs.dead, false)
	s.index[id] = loc{t, len(vs.ids) - 1}
	seq := s.seq.Add(1)
	s.upserts.Add(1)
	s.snap.Store(&snapshot[V]{seq: seq, vaults: vaults, live: live + 1, dead: dead})
	return seq, nil
}

// Delete tombstones the row with the given id. It reports whether the
// id was present; a miss does not commit (the sequence number returned
// is the current one, unchanged).
func (s *Store[V]) Delete(id int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[id]
	if !ok {
		return s.seq.Load(), false
	}
	cur := s.snap.Load()
	vaults := append([]vaultShard[V](nil), cur.vaults...)
	tombstone(&vaults[l.vault], l.row)
	delete(s.index, id)
	seq := s.seq.Add(1)
	s.deletes.Add(1)
	s.snap.Store(&snapshot[V]{seq: seq, vaults: vaults, live: cur.live - 1, dead: cur.dead + 1})
	return seq, true
}

// tombstone marks row r of vs dead via a copied bitmap, so published
// snapshots sharing the old bitmap are untouched.
func tombstone[V any](vs *vaultShard[V], r int) {
	nd := make([]bool, len(vs.dead))
	copy(nd, vs.dead)
	nd[r] = true
	vs.dead = nd
	vs.deadN++
}

// targetVault picks the append target: the vault with the fewest
// physical rows, ties to the lowest index — deterministic, and the
// cheap half of keeping vaults balanced (the compactor handles the
// rest when deletes skew them).
func targetVault[V any](vaults []vaultShard[V]) int {
	t := 0
	for v := 1; v < len(vaults); v++ {
		if len(vaults[v].ids) < len(vaults[t].ids) {
			t = v
		}
	}
	return t
}

// Get returns the row stored under id, if present. The returned row
// aliases the store's immutable copy; callers must not modify it.
func (s *Store[V]) Get(id int) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero V
	l, ok := s.index[id]
	if !ok {
		return zero, false
	}
	snap := s.snap.Load()
	return snap.vaults[l.vault].rows[l.row], true
}

// Len returns the number of live (surviving) rows.
func (s *Store[V]) Len() int { return s.snap.Load().live }

// Dead returns the number of tombstoned rows not yet compacted away.
func (s *Store[V]) Dead() int { return s.snap.Load().dead }

// Seq returns the last committed mutation sequence number.
func (s *Store[V]) Seq() uint64 { return s.seq.Load() }

// Vaults returns the physical partition count.
func (s *Store[V]) Vaults() int { return s.opts.Vaults }

// Dim returns the row dimensionality (bits for binary stores).
func (s *Store[V]) Dim() int { return s.dim }

// Stats returns a point-in-time view of the store's mutation state.
func (s *Store[V]) Stats() StoreStats {
	snap := s.snap.Load()
	st := StoreStats{
		Seq:           snap.seq,
		Live:          snap.live,
		Dead:          snap.dead,
		Upserts:       s.upserts.Load(),
		Deletes:       s.deletes.Load(),
		CompactPasses: s.passes.Load(),
		VaultRewrites: s.rewrites.Load(),
		Rebalances:    s.rebals.Load(),
	}
	if phys := snap.live + snap.dead; phys > 0 {
		st.GarbageRatio = float64(snap.dead) / float64(phys)
	}
	return st
}

// Survivors returns the live rows and their ids in ascending id order —
// the canonical rebuilt-from-survivors dataset the equivalence tests
// compare against. Rows alias the store's immutable copies.
func (s *Store[V]) Survivors() (ids []int, rows []V) {
	snap := s.snap.Load()
	ids = make([]int, 0, snap.live)
	byID := make(map[int]V, snap.live)
	for _, vs := range snap.vaults {
		for i, id := range vs.ids {
			if !vs.dead[i] {
				ids = append(ids, id)
				byID[id] = vs.rows[i]
			}
		}
	}
	sort.Ints(ids)
	rows = make([]V, len(ids))
	for i, id := range ids {
		rows[i] = byID[id]
	}
	return ids, rows
}

// Search returns the k nearest live rows to q, closest first, ids being
// the external ids given to Upsert/Seed. The scan runs against one
// snapshot generation end to end.
func (s *Store[V]) Search(q V, k int) []topk.Result {
	res, _ := s.SearchStatsSpan(q, k, nil)
	return res
}

// SearchStats is Search plus work accounting; Stats.Seq carries the
// generation scanned.
func (s *Store[V]) SearchStats(q V, k int) ([]topk.Result, knn.Stats) {
	return s.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of sp
// per scanned partition (sp may be nil). Results are bit-identical to a
// serial scan of the same generation at any vault count: the total
// order is (distance, external id), independent of physical layout. A
// single query is a batch of one.
func (s *Store[V]) SearchStatsSpan(q V, k int, sp *obs.Span) ([]topk.Result, knn.Stats) {
	out, st := s.SearchBatch([]V{q}, k, sp)
	return out[0], st
}

// SearchBatch answers one query per element of qs, all against a single
// snapshot generation (batch-level consistency), in one query-tiled
// scan: each vault walks its live rows once, scoring every row against
// the whole batch into one vault-local selector per query, and records
// one "vault" child span of sp (nil-safe). out[i] is exactly what Search
// returns for qs[i] on that generation. The Stats sum over the batch —
// DistEvals, Dims and PQInserts are len(qs) times one query's — and Seq
// is the generation scanned.
func (s *Store[V]) SearchBatch(qs []V, k int, sp *obs.Span) ([][]topk.Result, knn.Stats) {
	snap := s.snap.Load()
	st := knn.Stats{Seq: snap.seq}
	if k <= 0 || len(qs) == 0 {
		return make([][]topk.Result, len(qs)), st
	}
	newScan := s.prep(qs, k)
	if phys := snap.live + snap.dead; s.opts.Vaults == 1 || phys*len(qs) < s.opts.SerialBelow {
		sc := newScan()
		for v := range snap.vaults {
			scanVault(&snap.vaults[v], sc)
		}
		res, sst := sc.Results()
		st.Add(sst)
		return res, st
	}
	parts := make([][][]topk.Result, len(snap.vaults))
	stats := make([]knn.Stats, len(snap.vaults))
	var wg sync.WaitGroup
	for v := range snap.vaults {
		if len(snap.vaults[v].ids) == 0 {
			continue
		}
		vsp := sp.Start("vault",
			obs.Tag{Key: "vault", Value: v},
			obs.Tag{Key: "rows", Value: len(snap.vaults[v].ids)},
			obs.Tag{Key: "queries", Value: len(qs)})
		wg.Add(1)
		go func(v int, vsp *obs.Span) {
			defer wg.Done()
			sc := newScan()
			scanVault(&snap.vaults[v], sc)
			parts[v], stats[v] = sc.Results()
			vsp.End()
		}(v, vsp)
	}
	wg.Wait()
	scanned := parts[:0]
	for v, p := range parts {
		if p != nil {
			scanned = append(scanned, p)
			st.Add(stats[v])
		}
	}
	return knn.MergeVaults(k, len(qs), scanned), st
}

// scanVault offers one vault's live rows to sc; tombstones are skipped
// before any distance work, so a block of four holds live rows only.
func scanVault[V any](vs *vaultShard[V], sc scan[V]) {
	for i := range vs.rows {
		if !vs.dead[i] {
			sc.Offer(vs.ids[i], vs.rows[i])
		}
	}
}
