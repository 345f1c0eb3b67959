package knn

// Vault-parallel intra-query execution. The SSAM module partitions its
// dataset across the HMC's 32 vaults and scans them concurrently, with
// a global top-k reduction on the host (PAPER §IV, Fig. 4). The host
// engines reproduce that topology inside one region: the database is
// split into up to Vaults contiguous slices, one goroutine per slice
// runs the scan kernel into a vault-local topk.Selector per query of
// the call, and the vault-local lists are reduced with
// topk.MergeSorted. (The quantized engine keeps and reduces candidates
// its own way, reservoir.go, to the same sets under one shared bound.)
//
// The result is bit-for-bit identical to a serial scan — ids, order,
// and distances — because both sides follow one total order (ascending
// distance, ties by ascending id): the Selector admits and evicts
// under it, and MergeSorted reduces under it, so any candidate in the
// global top-k is necessarily in its vault's local top-k and survives
// the merge at the same rank. Vault-local selectors deliberately do
// NOT share a global distance bound: sharing one would prune more
// candidates but make PQKept accounting (and the admission sequence)
// depend on goroutine scheduling, losing deterministic stats.

import (
	"runtime"

	"ssam/internal/obs"
	"ssam/internal/par"
)

// MaxVaults caps intra-query parallelism at the paper's per-module
// vault count: one scan unit per HMC vault, 32 per module.
const MaxVaults = 32

// DefaultSerialThreshold is the call size, rows times queries, below
// which the walk scans serially even when vault parallelism is
// configured. Measured on
// the synthetic GloVe/GIST shapes: spawning and joining a vault worker
// costs a few microseconds, which a scan amortizes only once each
// vault has on the order of a hundred rows of distance math; below
// ~2k rows the serial scan wins at every vault count.
const DefaultSerialThreshold = 2048

// DefaultVaults returns the default intra-query vault count:
// min(MaxVaults, GOMAXPROCS). More vaults than cores only adds
// scheduling overhead on the host, and the paper's module tops out at
// 32 vaults.
func DefaultVaults() int {
	if p := runtime.GOMAXPROCS(0); p < MaxVaults {
		return p
	}
	return MaxVaults
}

// ResolveVaults normalizes a configured vault count the way every engine
// does: values <= 0 select DefaultVaults, values above MaxVaults clamp to
// it. Exported so a store can be written with exactly the chunking the
// in-RAM scan would use.
func ResolveVaults(v int) int {
	if v <= 0 {
		return DefaultVaults()
	}
	if v > MaxVaults {
		return MaxVaults
	}
	return v
}

// Walk is how a scan splits its rows into vaults: the vault count, and
// the size under which a call scans them all as one. The engines and
// the mutable store embed it.
type Walk struct {
	vaults      int
	serialBelow int // a call over rows × queries below this scans as one
}

// NewWalk returns the walk over vaults vaults (ResolveVaults) with the
// default serial threshold.
func NewWalk(vaults int) Walk {
	return Walk{vaults: ResolveVaults(vaults), serialBelow: DefaultSerialThreshold}
}

// Vaults returns the vault count: for an exact scan over a store, its
// page count.
func (w *Walk) Vaults() int { return w.vaults }

// SetSerialThreshold overrides the size, in rows times queries of the
// call, below which a call over resident rows scans serially whatever
// the vault count (default DefaultSerialThreshold). Zero forces the
// vault path at any size: tests and benchmarks use it to exercise vault
// parallelism on small datasets. Set it before searching.
func (w *Walk) SetSerialThreshold(n int) { w.serialBelow = n }

// split is n rows cut into the walk's vaults.
func (w *Walk) split(n int) par.Split { return par.NewSplit(n, w.vaults) }

// Pass is one call's scan, split into partitions: Len of them,
// partition v holding Size(v) rows (an embedded par.Split gives both).
// Scan(a, b, vsp) scans partitions [a, b) and returns their answer and
// work; Merge reduces the answers of several partitions, in partition
// order, to the call's. A pass is a small value: WalkVaults copies it to
// the goroutines it fans out to, so a call that scans as one allocates
// nothing for it.
type Pass[T any] interface {
	Len() int
	Size(v int) int
	Scan(a, b int, vsp *obs.Span) (T, Stats, error)
	Merge(parts []T) T
}

// WalkVaults is the one partition walk. Under w's serial threshold, or
// with one vault, it is one p.Scan over every partition on the caller's
// goroutine, with no span and no merge. Otherwise each partition that
// holds rows is one Scan, recorded as a "vault" child span of sp
// (nil-safe) tagged with its index, row count and the queries it
// served, and handed to Scan to tag further, so a sampled trace shows
// per-vault skew; empty partitions are skipped. Resident rows fan out, a
// goroutine a partition, their spans opened before the goroutines launch
// so that their durations cover the scheduling delay; inOrder walks the
// partitions one after another on the caller's goroutine and stops at
// the first error — the walk over a store's pages, where holding one
// page at a time is what keeps the cache budget true, and which never
// scans as one. Either way a panic in Scan is its partition's error.
// The Stats sum the partitions' work, and Merge reduces their answers
// when there is more than one. Because every row is scanned by exactly
// one partition, DistEvals, Dims and PQInserts are identical to a serial
// scan's (a selector's PQKept may exceed it, bounding against fewer
// competitors; the quantized pass's one bound keeps it equal).
func WalkVaults[T any, P Pass[T]](w *Walk, p P, queries int, inOrder bool, sp *obs.Span) (T, Stats, error) {
	if !inOrder {
		rows := 0
		for v := range p.Len() {
			rows += p.Size(v)
		}
		if w.vaults == 1 || rows*queries < w.serialBelow {
			return p.Scan(0, p.Len(), nil)
		}
	}
	type part struct {
		v   int
		res T
		st  Stats
		sp  *obs.Span
	}
	parts := make([]part, 0, p.Len())
	for v := range p.Len() {
		if p.Size(v) > 0 {
			parts = append(parts, part{v: v})
		}
	}
	limit := 1
	if !inOrder {
		for i := range parts {
			parts[i].sp = vaultSpan(sp, parts[i].v, p.Size(parts[i].v), queries)
		}
		limit = 0
	}
	err := par.Each(len(parts), limit, func(i int) (err error) {
		pt := &parts[i]
		if inOrder {
			pt.sp = vaultSpan(sp, pt.v, p.Size(pt.v), queries)
		}
		defer pt.sp.End()
		pt.res, pt.st, err = p.Scan(pt.v, pt.v+1, pt.sp)
		return err
	})
	var st Stats
	if err != nil {
		var none T
		return none, st, err
	}
	for _, pt := range parts {
		st.Add(pt.st)
	}
	if len(parts) == 1 {
		return parts[0].res, st, nil
	}
	out := make([]T, len(parts))
	for i, pt := range parts {
		out[i] = pt.res
	}
	return p.Merge(out), st, nil
}

func vaultSpan(sp *obs.Span, v, rows, queries int) *obs.Span {
	return sp.Start("vault",
		obs.Tag{Key: "vault", Value: v},
		obs.Tag{Key: "rows", Value: rows},
		obs.Tag{Key: "queries", Value: queries})
}
