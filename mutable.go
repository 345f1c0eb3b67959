package ssam

import (
	"errors"
	"fmt"
	"time"

	"ssam/internal/mutate"
	"ssam/internal/vec"
)

// ErrImmutableEngine is returned by Upsert and Delete on regions whose
// engine cannot take writes. Only Linear regions are mutable: the index
// structures (kd-tree forests, k-means trees, LSH tables, and the
// layered graph) bake row positions into their geometry at build time,
// so an in-place write would silently corrupt recall; they require a
// rebuild (see DESIGN.md §11).
var ErrImmutableEngine = errors.New("ssam: engine does not support mutation; only Linear regions are mutable")

// MutationStats is a point-in-time view of a mutable region's write
// state (sequence number, live/dead rows, compaction counters).
type MutationStats = mutate.StoreStats

// CompactResult summarizes one compaction pass over a mutable region.
type CompactResult = mutate.CompactResult

// DefaultCompactInterval is the background compactor period for regions
// that migrate to the mutable store.
const DefaultCompactInterval = 200 * time.Millisecond

// mutable returns the region's store if it has migrated to the write
// path, else nil.
func (r *Region) mutable() mutableStore {
	ms, _ := r.engine().(mutableStore)
	return ms
}

// Mutable reports whether the region has taken at least one write and
// is serving from the mutable store.
func (r *Region) Mutable() bool { return r.mutable() != nil }

// Seq returns the region's last committed mutation sequence number
// (zero before the first write).
func (r *Region) Seq() uint64 {
	if ms := r.mutable(); ms != nil {
		return ms.Seq()
	}
	return 0
}

// MutationStats returns the region's write-path counters; ok is false
// if the region has never been mutated.
func (r *Region) MutationStats() (MutationStats, bool) {
	ms := r.mutable()
	if ms == nil {
		return MutationStats{}, false
	}
	return ms.Stats(), true
}

// SetCompactHook installs fn to run after every compaction pass that
// changes the region's physical layout (the server uses it to emit
// compaction traces and counters). It applies to the current store and
// any future migration; fn runs on the compactor goroutine.
func (r *Region) SetCompactHook(fn func(CompactResult)) {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	r.onCompact = fn
	if ms := r.mutable(); ms != nil {
		ms.setHook(fn)
	}
}

// CompactNow runs one synchronous compaction pass, for deterministic
// tests and the server's POST /regions/{name}/compact endpoint. It is
// an error on a region that has never been mutated (there is nothing to
// compact before the first write).
func (r *Region) CompactNow() (CompactResult, error) {
	if r.freed.Load() {
		return CompactResult{}, ErrFreed
	}
	ms := r.mutable()
	if ms == nil {
		return CompactResult{}, errors.New("ssam: CompactNow on an unmutated region")
	}
	return ms.CompactOnce(), nil
}

// Upsert inserts vector v under id (replacing any existing row with
// that id) and returns the committed mutation sequence number. The
// first write migrates a Linear region from its immutable engine to the
// mutable store, seeded with the loaded dataset under ids 0..n-1;
// searches before and after migration are bit-identical on the same
// logical content. Safe to call concurrently with searches and other
// mutations. Non-Linear regions return ErrImmutableEngine.
func (r *Region) Upsert(id int, v []float32) (uint64, error) {
	if r.cfg.Metric == Hamming {
		return 0, errors.New("ssam: float upsert on a Hamming region; use UpsertBinary")
	}
	if len(v) != r.dims {
		return 0, fmt.Errorf("ssam: row dim %d, want %d", len(v), r.dims)
	}
	ms, err := r.migrate()
	if err != nil {
		return 0, err
	}
	return ms.(*mutableEngine[[]float32]).Upsert(id, v)
}

// UpsertBinary is Upsert for Hamming regions.
func (r *Region) UpsertBinary(id int, c BinaryCode) (uint64, error) {
	if r.cfg.Metric != Hamming {
		return 0, errors.New("ssam: binary upsert on a non-Hamming region")
	}
	if c.Dim != r.dims {
		return 0, fmt.Errorf("ssam: code width %d, want %d", c.Dim, r.dims)
	}
	ms, err := r.migrate()
	if err != nil {
		return 0, err
	}
	return ms.(*mutableEngine[vec.Binary]).Upsert(id, c)
}

// Delete tombstones the row with the given id, reporting whether it was
// present; a miss does not commit a sequence number. Like Upsert, the
// first write migrates a Linear region to the mutable store.
func (r *Region) Delete(id int) (seq uint64, ok bool, err error) {
	ms, err := r.migrate()
	if err != nil {
		return 0, false, err
	}
	seq, ok = ms.Delete(id)
	return seq, ok, nil
}

// migrate returns the region's mutable store, performing the one-time
// engine swap on first use. Concurrent first writes are serialized by
// mutMu; searches never take that lock — they observe the swap through
// the atomic engine pointer, and because the store is seeded with
// exactly the engine's rows under ids equal to row indices, a query
// racing the flip returns bit-identical results either way.
func (r *Region) migrate() (mutableStore, error) {
	if ms := r.mutable(); ms != nil {
		return ms, nil
	}
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	if ms := r.mutable(); ms != nil {
		return ms, nil
	}
	switch {
	case r.freed.Load():
		return nil, ErrFreed
	case r.immutable != nil:
		return nil, r.immutable
	case r.engine() == nil:
		return nil, errors.New("ssam: mutation before BuildIndex")
	}
	ms, err := r.seed()
	if err != nil {
		return nil, err
	}
	ms.setHook(r.onCompact)
	ms.StartCompactor(DefaultCompactInterval)
	var e engine = ms
	r.eng.Store(&e) // the replaced exact-scan engine holds nothing to close
	return ms, nil
}
