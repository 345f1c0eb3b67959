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
	"ssam/internal/topk"
)

// MaxVaults caps intra-query parallelism at the paper's per-module
// vault count: one scan unit per HMC vault, 32 per module.
const MaxVaults = 32

// DefaultSerialThreshold is the dataset size below which the engines
// scan serially even when vault parallelism is configured. Measured on
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

// fanVaults is the one partition walk: rows [0, n) split into vaults
// contiguous slices, scan run on each (par.Each), and what each returned
// handed back in vault order for the caller to reduce. It stops at the
// first slice that would be empty (100 rows at 32 vaults are 25 slices
// of 4), so scan never sees one. Resident rows fan out, a goroutine a
// slice; inOrder walks the slices one after another on the caller's
// goroutine and stops at the first error — the walk over a store's
// pages, where holding one page at a time is what keeps the cache budget
// true. Either way a panic in scan is its slice's error. Each slice is
// recorded as a "vault" child span of sp (nil-safe) tagged with its
// index, row count and the queries it served, and handed to scan to tag
// further, so a sampled trace shows per-vault skew. The returned Stats
// sum the per-vault accounting; because every row is scanned by exactly
// one vault, DistEvals, Dims and PQInserts are identical to a serial
// scan's (a selector's PQKept may exceed it, bounding against fewer
// competitors; the quantized pass's one bound keeps it equal).
func fanVaults[T any](n, vaults, queries int, inOrder bool, sp *obs.Span,
	scan func(v, lo, hi int, vsp *obs.Span) (T, Stats, error)) ([]T, Stats, error) {
	chunk := (n + vaults - 1) / vaults
	nslices := 0
	if chunk > 0 {
		nslices = (n + chunk - 1) / chunk
	}
	type part struct {
		res T
		st  Stats
		sp  *obs.Span
	}
	parts := make([]part, nslices)
	limit := 1
	if !inOrder {
		// The spans start before the goroutines launch so their durations
		// cover scheduling delay — exactly the skew a trace should show.
		for v := range parts {
			parts[v].sp = vaultSpan(sp, v, min(chunk, n-v*chunk), queries)
		}
		limit = 0
	}
	err := par.Each(nslices, limit, func(v int) (err error) {
		p, lo := &parts[v], v*chunk
		hi := min(lo+chunk, n)
		if inOrder {
			p.sp = vaultSpan(sp, v, hi-lo, queries)
		}
		defer p.sp.End()
		p.res, p.st, err = scan(v, lo, hi, p.sp)
		return err
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]T, nslices)
	var st Stats
	for v, p := range parts {
		out[v] = p.res
		st.Add(p.st)
	}
	return out, st, nil
}

func vaultSpan(sp *obs.Span, v, rows, queries int) *obs.Span {
	return sp.Start("vault",
		obs.Tag{Key: "vault", Value: v},
		obs.Tag{Key: "rows", Value: rows},
		obs.Tag{Key: "queries", Value: queries})
}

// scanOne is the single-query engines' scan policy around one range
// scan: serial when one vault is configured or the dataset is under
// serialBelow rows, vault-parallel otherwise, the vault-local lists
// merged under the total order. A panic in a vault's scan is re-raised
// on the caller's goroutine.
func scanOne(n, vaults, serialBelow, k int, sp *obs.Span, scan func(lo, hi int) ([]topk.Result, Stats)) ([]topk.Result, Stats) {
	if vaults == 1 || n < serialBelow {
		return scan(0, n)
	}
	parts, st, err := fanVaults(n, vaults, 1, false, sp, func(_, lo, hi int, _ *obs.Span) ([]topk.Result, Stats, error) {
		res, st := scan(lo, hi)
		return res, st, nil
	})
	if err != nil {
		panic(err)
	}
	return topk.MergeSorted(k, parts...), st
}
