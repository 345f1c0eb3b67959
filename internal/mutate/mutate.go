// Package mutate gives the linear engines a write path: an RCU-style
// mutable vector store supporting Upsert and Delete under live search
// traffic. The paper's target applications are write-heavy — InfiniTAM's
// loop-closure database interleaves an insert with a findMostSimilar on
// every frame, and NCAM (arXiv:1606.03742) motivates near-data search
// precisely for datasets that churn faster than they can be re-shipped —
// but the load-then-search engines of internal/knn cannot take a write
// without a full rebuild. This package closes that gap for the two
// linear engines a region can write to (float32, Hamming codes).
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
	"ssam/internal/par"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Options tunes a Store. Zero values select the defaults.
type Options struct {
	// Vaults is the physical partition count (and the intra-query scan
	// parallelism, mirroring the paper's per-vault accelerators). <= 0
	// selects knn.DefaultVaults; values above knn.MaxVaults clamp.
	Vaults int
	// GarbageThreshold is the per-vault dead fraction (dead / physical)
	// at which a compaction pass rewrites the vault (default 0.3).
	GarbageThreshold float64
	// RebalanceFactor triggers a full rebalance when the largest vault
	// holds more than RebalanceFactor times the mean physical rows per
	// vault (default 2.0; values <= 1 keep the default).
	RebalanceFactor float64
}

func (o Options) fill() Options {
	o.Vaults = knn.ResolveVaults(o.Vaults)
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

// snapshot is one immutable generation of the store. Its vaults are the
// partitions a search walks (searchPass).
type snapshot[V any] struct {
	seq    uint64 // mutation sequence number at publish
	vaults []vaultShard[V]
	live   int // surviving rows
	dead   int // tombstoned rows still physically present
}

func (s *snapshot[V]) Len() int       { return len(s.vaults) }
func (s *snapshot[V]) Size(v int) int { return len(s.vaults[v].ids) }

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

// Store is a mutable vector store over rows of type V ([]float32 or
// vec.Binary — see NewFloat, NewBinary). All methods are safe for
// concurrent use but SetSerialThreshold; Search never blocks on
// writers. Its vaults are split and walked as the immutable engines'
// are (knn.Walk).
type Store[V any] struct {
	knn.Walk
	opts  Options
	dim   int           // for Stats.Dims accounting and error text
	check func(V) error // row validation (width, finiteness is wire's job)
	clone func(V) V     // defensive copy on upsert (seeded rows are kept as given)
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
		func(qs []vec.Binary, k int) func() scan[vec.Binary] {
			return func() scan[vec.Binary] { return &hammingScan{knn.NewSelectors(len(qs), k, 1), qs, bits} }
		},
	)
}

// scan is one pass over rows for a batch of queries: live rows are
// offered with their ids, and Results returns each query's neighbours
// with the pass's work accounting. knn.TileScan is the float store's.
type scan[V any] interface {
	Offer(id int, row V)
	Results() ([][]topk.Result, knn.Stats)
}

// hammingScan is the Hamming store's scan: each row is scored against
// the queries one at a time.
type hammingScan struct {
	*knn.Selectors
	qs   []vec.Binary
	bits int
}

func (h *hammingScan) Offer(id int, row vec.Binary) {
	for j, q := range h.qs {
		h.Dists[j] = float64(vec.Hamming(q, row))
	}
	h.Selectors.Offer([]int{id}, h.bits)
}

func (h *hammingScan) Results() ([][]topk.Result, knn.Stats) { return h.Selectors.Results(), h.Stats }

func newStore[V any](dim int, opts Options, check func(V) error, clone func(V) V, prep func([]V, int) func() scan[V]) *Store[V] {
	opts = opts.fill()
	s := &Store[V]{
		Walk:  knn.NewWalk(opts.Vaults),
		opts:  opts,
		dim:   dim,
		check: check,
		clone: clone,
		prep:  prep,
		index: make(map[int]loc),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.snap.Store(&snapshot[V]{vaults: make([]vaultShard[V], s.Vaults())})
	return s
}

// Seed bulk-loads rows with the given external ids as generation 0,
// split into vaults by the immutable engines' rule (par.Split), the
// vaults past the split left empty for upserts to fill — a seeded store
// answers queries bit-identically to knn.NewEngine over the same data
// when ids are 0..n-1. Seed is
// only valid on an empty store (no prior Seed or mutation) and does not
// advance the sequence number: the seed is the dataset the first
// mutation mutates.
//
// The store keeps the rows it is given, not copies: a seeded row is
// never written in place — a later upsert of its id stores a clone
// elsewhere and tombstones it, and compaction moves only row headers —
// so the caller may hand over rows it shares with a read-only engine,
// and must not write them itself.
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
	vaults := make([]vaultShard[V], s.Vaults())
	split := par.NewSplit(len(rows), s.Vaults())
	for v := range split.Len() {
		lo, hi := split.Bounds(v, v+1)
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
			vs.rows = append(vs.rows, rows[i])
			vs.ids = append(vs.ids, id)
			s.index[id] = loc{v, len(vs.ids) - 1}
		}
		vaults[v] = vs
	}
	s.snap.Store(&snapshot[V]{vaults: vaults, live: len(rows)})
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

// SearchBatch is the store's one search — a single query is a batch of
// one. It answers one query per element of qs with the k nearest live
// rows, closest first, ids being the external ids given to Upsert/Seed,
// all against a single snapshot generation (batch-level consistency),
// in one query-tiled scan: the snapshot's vaults are the partitions of
// the engines' walk (knn.WalkVaults), each scanned once for the whole
// batch into one selector per query, tombstones skipped before any
// distance work. out[i] is bit-identical to a serial scan of that
// generation for qs[i] alone at any vault count: the total order is
// (distance, external id), independent of physical layout. The Stats
// sum over the batch — DistEvals, Dims and PQInserts are len(qs) times
// one query's — and Seq is the generation scanned. A k past the
// generation's live rows is answered as that many, so no selector is
// sized by k alone. A panic in a vault's scan is re-raised here, on the
// caller's goroutine.
func (s *Store[V]) SearchBatch(qs []V, k int, sp *obs.Span) ([][]topk.Result, knn.Stats) {
	snap := s.snap.Load()
	if k <= 0 || len(qs) == 0 {
		return make([][]topk.Result, len(qs)), knn.Stats{Seq: snap.seq}
	}
	k = min(k, max(snap.live, 1))
	out, st, err := knn.WalkVaults(&s.Walk, searchPass[V]{snap, s.prep(qs, k), k, len(qs)}, len(qs), false, sp)
	if err != nil {
		panic(err)
	}
	st.Seq = snap.seq
	return out, st
}

// searchPass is one batch's walk over a snapshot's vaults: Scan offers
// the live rows of vaults [a, b) to one scan, tombstones skipped before
// any distance work, so a block of four holds live rows only.
type searchPass[V any] struct {
	*snapshot[V]
	newScan    func() scan[V]
	k, queries int
}

func (p searchPass[V]) Scan(a, b int, _ *obs.Span) ([][]topk.Result, knn.Stats, error) {
	sc := p.newScan()
	for _, vs := range p.vaults[a:b] {
		for i, row := range vs.rows {
			if !vs.dead[i] {
				sc.Offer(vs.ids[i], row)
			}
		}
	}
	res, st := sc.Results()
	return res, st, nil
}

func (p searchPass[V]) Merge(parts [][][]topk.Result) [][]topk.Result {
	return knn.MergeVaults(p.k, p.queries, parts)
}
