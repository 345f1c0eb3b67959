package server

// The write path: upsert/delete/compact endpoints over ssam.Region's
// mutable store (internal/mutate). Mutations ride the same admission
// gate as searches — a draining or saturated server sheds writes with
// 503 too — but are never retried by the client (a blind re-send would
// double-commit sequence numbers). Sharded regions reject mutation
// outright: the partitioner bakes row placement at load time, so a
// per-shard write path would need routing state the cluster does not
// keep (reload instead).

import (
	"context"
	"fmt"
	"time"

	"ssam"
	"ssam/internal/obs"
	"ssam/internal/server/wire"
)

// mutator is what the write path needs from a backend: the region and
// group backends satisfy it (through the *ssam.Region and
// *replica.Group they embed); the cluster backend does not. A group fans each
// mutation out to every replica in writer order (seq-identical by
// construction); a group of sharded backends rejects writes with
// ssam.ErrImmutableEngine exactly like a plain sharded region.
type mutator interface {
	Upsert(id int, v []float32) (uint64, error)
	Delete(id int) (seq uint64, ok bool, err error)
	CompactNow() (ssam.CompactResult, error)
	Len() int
}

// mutableGate refuses a region the write path cannot serve: sharded
// regions are immutable over the wire, and mutation before build is the
// same sequencing error as searching an unbuilt region.
func mutableGate(e *regionEntry) error {
	if _, ok := e.be.(mutator); !ok {
		return conflict{fmt.Errorf("region %q is sharded; sharded regions are immutable (reload to change data)", e.name)}
	}
	return builtGate(e)
}

func tagRows(ids []int) obs.Tag { return obs.Tag{Key: "rows", Value: len(ids)} }

func inlineMutate(resp *wire.MutateResponse, td *obs.TraceData) { resp.Trace = td }

// commit applies a write request row by row under one "mutate" span. A
// request that fails at row i has committed rows 0..i-1, so they are
// counted before the error is answered: ssam_region_writes_total must
// not fall behind the store's own counters.
func commit(e *regionEntry, root *obs.Span, ids []int, apply func(m mutator, i int) (seq uint64, hit bool, err error)) (wire.MutateResponse, error) {
	m := e.be.(mutator) // mutableGate has checked
	msp := root.Start("mutate")
	var out wire.MutateResponse
	var err error
	for i, id := range ids {
		var hit bool
		if out.Seq, hit, err = apply(m, i); err != nil {
			break
		}
		if hit {
			out.Applied++
		} else {
			out.Missing = append(out.Missing, id)
		}
	}
	msp.SetTag("seq", out.Seq)
	msp.End()
	e.stats.recordWrites(out.Applied)
	out.Len = m.Len()
	return out, err
}

var upsertRoute = route[wire.UpsertRequest, wire.MutateResponse]{
	trace:  "upsert",
	tag:    func(req wire.UpsertRequest) obs.Tag { return tagRows(req.IDs) },
	decode: wire.DecodeUpsert,
	check: func(e *regionEntry, req wire.UpsertRequest) error {
		// The decoder guarantees uniform dims; one row pins them to the region.
		if len(req.Vectors[0]) != e.dims {
			return fmt.Errorf("vector dim %d, want %d", len(req.Vectors[0]), e.dims)
		}
		return nil
	},
	gate:     mutableGate,
	admitted: true,
	run: func(_ context.Context, e *regionEntry, req wire.UpsertRequest, root *obs.Span, _ time.Time) (wire.MutateResponse, error) {
		return commit(e, root, req.IDs, func(m mutator, i int) (uint64, bool, error) {
			seq, err := m.Upsert(req.IDs[i], req.Vectors[i])
			return seq, true, err
		})
	},
	inline: inlineMutate,
}

var deleteRoute = route[wire.DeleteRequest, wire.MutateResponse]{
	trace:    "delete",
	tag:      func(req wire.DeleteRequest) obs.Tag { return tagRows(req.IDs) },
	decode:   wire.DecodeDelete,
	gate:     mutableGate,
	admitted: true,
	run: func(_ context.Context, e *regionEntry, req wire.DeleteRequest, root *obs.Span, _ time.Time) (wire.MutateResponse, error) {
		return commit(e, root, req.IDs, func(m mutator, i int) (uint64, bool, error) { return m.Delete(req.IDs[i]) })
	},
	inline: inlineMutate,
}

// compactRoute is untraced: the compaction hook emits the pass's own
// trace, with the pass summary, for forced and background passes alike.
var compactRoute = route[struct{}, wire.CompactResponse]{
	gate:     mutableGate,
	admitted: true,
	run: func(_ context.Context, e *regionEntry, _ struct{}, _ *obs.Span, _ time.Time) (wire.CompactResponse, error) {
		res, err := e.be.(mutator).CompactNow()
		if err != nil {
			// Only failure mode: the region has never been mutated (or was
			// freed under us) — a sequencing conflict.
			return wire.CompactResponse{}, conflict{err}
		}
		return wire.CompactResponse{
			Seq:             res.Seq,
			VaultsRewritten: res.VaultsRewritten,
			Rebalanced:      res.Rebalanced,
			RowsDropped:     res.RowsDropped,
			Len:             res.Live,
		}, nil
	},
}

// installCompactHook makes every layout-changing compaction pass
// (background or forced) visible in the observability surfaces: a
// forced trace in the /tracez ring carrying the pass summary, plus the
// region's compaction counter. Installed at build time, before any
// write can migrate the region to the mutable store; the hook runs on
// the compactor goroutine, so it touches only concurrency-safe state.
func (s *Server) installCompactHook(e *regionEntry, region *ssam.Region) {
	name, stats := e.name, e.stats
	region.SetCompactHook(func(res ssam.CompactResult) {
		if !res.Changed() {
			return
		}
		stats.recordCompaction()
		tr := s.tracer.Trace("compact", true,
			obs.Tag{Key: "region", Value: name},
			obs.Tag{Key: "seq", Value: res.Seq},
			obs.Tag{Key: "vaults_rewritten", Value: res.VaultsRewritten},
			obs.Tag{Key: "rebalanced", Value: res.Rebalanced},
			obs.Tag{Key: "rows_dropped", Value: res.RowsDropped},
			obs.Tag{Key: "live_rows", Value: res.Live},
			obs.Tag{Key: "elapsed_us", Value: float64(res.Elapsed) / float64(time.Microsecond)})
		s.tracer.Finish(tr)
	})
}

// toWireMutation converts a region's write-path counters to the wire
// form attached to /statsz region blocks.
func toWireMutation(st ssam.MutationStats) *wire.MutationStats {
	return &wire.MutationStats{
		Seq:           st.Seq,
		LiveRows:      st.Live,
		DeadRows:      st.Dead,
		Upserts:       st.Upserts,
		Deletes:       st.Deletes,
		CompactPasses: st.CompactPasses,
		VaultRewrites: st.VaultRewrites,
		Rebalances:    st.Rebalances,
		GarbageRatio:  st.GarbageRatio,
	}
}
