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
	"errors"
	"net/http"
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

// mutableRegion snapshots the entry's write-path backend, or writes
// the rejection: sharded regions are immutable over the wire (409),
// and mutation before build is a sequencing error (409, same as
// searching an unbuilt region).
func (e *regionEntry) mutableRegion(w http.ResponseWriter) (mutator, bool) {
	m, ok := e.be.(mutator)
	if !ok {
		writeErr(w, http.StatusConflict,
			"region %q is sharded; sharded regions are immutable (reload to change data)", e.name)
		return nil, false
	}
	return m, e.serving(w)
}

// mutationCode maps a region mutation error to its status: engine
// rejections (non-Linear modes) are conflicts with the region's
// configuration, everything else is a bad request.
func mutationCode(err error) int {
	if errors.Is(err, ssam.ErrImmutableEngine) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func (s *Server) handleUpsert(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := wire.DecodeUpsert(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The decoder guarantees uniform dims; one row pins them to the region.
	if len(req.Vectors[0]) != e.dims {
		writeErr(w, http.StatusBadRequest, "vector dim %d, want %d", len(req.Vectors[0]), e.dims)
		return
	}
	forced := r.Header.Get(TraceHeader) != ""
	tr := s.tracer.Trace("upsert", forced,
		obs.Tag{Key: "region", Value: e.name}, obs.Tag{Key: "rows", Value: len(req.IDs)})
	root := tr.Root()

	asp := root.Start("admission")
	release := s.admit(w)
	asp.End()
	if release == nil {
		s.tracer.Finish(tr)
		return
	}
	defer release()
	region, ok := e.mutableRegion(w)
	if !ok {
		s.tracer.Finish(tr)
		return
	}
	msp := root.Start("mutate")
	var seq uint64
	for i, id := range req.IDs {
		if seq, err = region.Upsert(id, req.Vectors[i]); err != nil {
			break
		}
	}
	msp.SetTag("seq", seq)
	msp.End()
	if err != nil {
		s.tracer.Finish(tr)
		writeErr(w, mutationCode(err), "%v", err)
		return
	}
	e.stats.recordWrites(len(req.IDs))
	out := wire.MutateResponse{Seq: seq, Applied: len(req.IDs), Len: region.Len()}
	if td := s.tracer.Finish(tr); forced {
		out.Trace = td
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := wire.DecodeDelete(data)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	forced := r.Header.Get(TraceHeader) != ""
	tr := s.tracer.Trace("delete", forced,
		obs.Tag{Key: "region", Value: e.name}, obs.Tag{Key: "rows", Value: len(req.IDs)})
	root := tr.Root()

	asp := root.Start("admission")
	release := s.admit(w)
	asp.End()
	if release == nil {
		s.tracer.Finish(tr)
		return
	}
	defer release()
	region, ok := e.mutableRegion(w)
	if !ok {
		s.tracer.Finish(tr)
		return
	}
	msp := root.Start("mutate")
	applied := 0
	var missing []int
	var seq uint64
	for _, id := range req.IDs {
		var hit bool
		if seq, hit, err = region.Delete(id); err != nil {
			break
		}
		if hit {
			applied++
		} else {
			missing = append(missing, id)
		}
	}
	msp.SetTag("seq", seq)
	msp.End()
	if err != nil {
		s.tracer.Finish(tr)
		writeErr(w, mutationCode(err), "%v", err)
		return
	}
	e.stats.recordWrites(applied)
	out := wire.MutateResponse{Seq: seq, Applied: applied, Missing: missing, Len: region.Len()}
	if td := s.tracer.Finish(tr); forced {
		out.Trace = td
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	e := s.entry(w, r)
	if e == nil {
		return
	}
	release := s.admit(w)
	if release == nil {
		return
	}
	defer release()
	region, ok := e.mutableRegion(w)
	if !ok {
		return
	}
	res, err := region.CompactNow()
	if err != nil {
		// Only failure mode: the region has never been mutated (or was
		// freed under us) — a sequencing conflict, not a bad request.
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, wire.CompactResponse{
		Seq:             res.Seq,
		VaultsRewritten: res.VaultsRewritten,
		Rebalanced:      res.Rebalanced,
		RowsDropped:     res.RowsDropped,
		Len:             res.Live,
	})
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
