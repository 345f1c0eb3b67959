// Background compaction for the mutable store. Tombstoned rows cost
// scan time (every query skips them) and memory; the compactor rewrites
// vaults whose garbage fraction passes Options.GarbageThreshold and,
// when deletes have skewed the partition, redistributes live rows
// evenly across vaults. Both rewrites run under the writer mutex —
// cheap, because rows are immutable per-row values and only slice
// headers move — and publish a fresh snapshot with the SAME sequence
// number: compaction changes physical layout, never logical content,
// and search results are ordered by (distance, external id), so a query
// racing a compaction returns bit-identical results either side of the
// swap.
package mutate

import (
	"time"

	"ssam/internal/par"
)

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	Seq             uint64        // sequence number of the snapshot compacted
	VaultsRewritten int           // vaults rewritten to drop tombstones
	Rebalanced      bool          // whether a full rebalance ran
	RowsDropped     int           // tombstones physically removed
	Live            int           // live rows after the pass
	Elapsed         time.Duration // wall time under the writer lock
}

// Changed reports whether the pass altered the physical layout.
func (r CompactResult) Changed() bool { return r.VaultsRewritten > 0 || r.Rebalanced }

// CompactOnce runs one compaction pass synchronously: every vault whose
// dead fraction is at least Options.GarbageThreshold is rewritten
// without its tombstones, and if afterwards the largest vault exceeds
// RebalanceFactor × the mean physical rows (with more than one vault),
// all live rows are redistributed into even contiguous chunks. Safe to
// call concurrently with searches and mutations.
func (s *Store[V]) CompactOnce() CompactResult {
	start := time.Now()
	res := s.compact()
	res.Elapsed = time.Since(start)
	if res.Changed() && s.OnCompact != nil {
		s.OnCompact(res)
	}
	return res
}

// compact is CompactOnce's pass under the writer lock.
func (s *Store[V]) compact() CompactResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	res := CompactResult{Seq: cur.seq}
	vaults := append([]vaultShard[V](nil), cur.vaults...)
	for v := range vaults {
		vs := &vaults[v]
		phys := len(vs.ids)
		if phys == 0 || vs.deadN == 0 {
			continue
		}
		if float64(vs.deadN)/float64(phys) < s.opts.GarbageThreshold {
			continue
		}
		nv := vaultShard[V]{
			rows: make([]V, 0, phys-vs.deadN),
			ids:  make([]int, 0, phys-vs.deadN),
			dead: make([]bool, phys-vs.deadN),
		}
		for i := range vs.ids {
			if vs.dead[i] {
				continue
			}
			nv.rows = append(nv.rows, vs.rows[i])
			nv.ids = append(nv.ids, vs.ids[i])
		}
		res.RowsDropped += vs.deadN
		*vs = nv
		res.VaultsRewritten++
	}
	if len(vaults) > 1 {
		maxPhys, totPhys := 0, 0
		for v := range vaults {
			totPhys += len(vaults[v].ids)
			if len(vaults[v].ids) > maxPhys {
				maxPhys = len(vaults[v].ids)
			}
		}
		mean := float64(totPhys) / float64(len(vaults))
		if mean > 0 && float64(maxPhys) > s.opts.RebalanceFactor*mean {
			vaults = rebalance(vaults, len(vaults))
			res.Rebalanced = true
			res.RowsDropped = cur.dead // a rebalance drops every tombstone
		}
	}
	if res.Changed() {
		// Rewrites moved rows; rebuild the id index to match.
		for v := range vaults {
			for i, id := range vaults[v].ids {
				if !vaults[v].dead[i] {
					s.index[id] = loc{v, i}
				}
			}
		}
		s.snap.Store(&snapshot[V]{
			seq:    cur.seq,
			vaults: vaults,
			live:   cur.live,
			dead:   cur.dead - res.RowsDropped,
		})
		if res.VaultsRewritten > 0 {
			s.rewrites.Add(uint64(res.VaultsRewritten))
		}
		if res.Rebalanced {
			s.rebals.Add(1)
		}
	}
	s.passes.Add(1)
	res.Live = cur.live
	return res
}

// rebalance redistributes live rows across nv vaults by the split Seed
// uses (par.Split), preserving physical scan order (vault by vault), and
// drops all tombstones.
func rebalance[V any](vaults []vaultShard[V], nv int) []vaultShard[V] {
	var rows []V
	var ids []int
	for v := range vaults {
		for i := range vaults[v].ids {
			if !vaults[v].dead[i] {
				rows = append(rows, vaults[v].rows[i])
				ids = append(ids, vaults[v].ids[i])
			}
		}
	}
	out := make([]vaultShard[V], nv)
	split := par.NewSplit(len(ids), nv)
	for v := range split.Len() {
		lo, hi := split.Bounds(v, v+1)
		out[v] = vaultShard[V]{
			rows: rows[lo:hi:hi],
			ids:  ids[lo:hi:hi],
			dead: make([]bool, hi-lo),
		}
	}
	return out
}

// StartCompactor launches the background compactor, running CompactOnce
// every interval until Close. A pass that panics — in the compact hook,
// say — is skipped; the next tick runs the next one. Calling it more
// than once is a no-op.
func (s *Store[V]) StartCompactor(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	s.compactOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					_ = par.Safe(func() error { s.CompactOnce(); return nil }) // a panicking pass is skipped, and counted by par
				}
			}
		}()
	})
}

// Close stops the background compactor, if started, and waits for it
// to exit. Close is idempotent, and a closed store remains searchable
// and mutable — only the periodic compaction stops. StartCompactor
// after Close is a no-op.
func (s *Store[V]) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	// If the compactor goroutine never started, consume its Once so it
	// cannot start later and close done ourselves to release waiters.
	s.compactOnce.Do(func() { close(s.done) })
	<-s.done
}
