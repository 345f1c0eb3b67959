package knn

// Vault-parallel intra-query execution. The SSAM module partitions its
// dataset across the HMC's 32 vaults and scans them concurrently, with
// a global top-k reduction on the host (PAPER §IV, Fig. 4). The host
// engines reproduce that topology inside one region: the database is
// split into up to Vaults contiguous slices, one goroutine per slice
// runs the scan kernel into a vault-local topk.Selector per query of
// the call, and the vault-local lists are reduced with
// topk.MergeSorted. (The quantized engine keeps and reduces candidates
// its own way, reservoir.go, to the same sets.)
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
	"sync"

	"ssam/internal/obs"
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

// ResolveVaults normalizes a configured vault count the same way the
// engines do: values <= 0 select DefaultVaults, values above MaxVaults
// clamp to it. Exported so out-of-core stores can be partitioned with
// exactly the chunking the in-RAM scan would use.
func ResolveVaults(v int) int { return resolveVaults(v) }

// resolveVaults normalizes a configured vault count: values <= 0
// select the default, values above MaxVaults clamp to it.
func resolveVaults(v int) int {
	if v <= 0 {
		return DefaultVaults()
	}
	if v > MaxVaults {
		return MaxVaults
	}
	return v
}

// fanVaults partitions rows [0, n) into vaults contiguous slices, runs
// scan on each from its own goroutine, and returns what each returned,
// in vault order, for the caller to reduce. Each slice is recorded as a
// "vault" child span of sp (nil-safe) tagged with its index, row count
// and the queries it served, so a sampled trace shows per-vault skew.
// The returned Stats sum the per-vault accounting; because every row is
// scanned by exactly one vault, DistEvals, Dims and PQInserts are
// identical to a serial scan's (PQKept may exceed it — vault-local
// selection bounds against fewer competitors).
func fanVaults[T any](n, vaults, queries int, sp *obs.Span, scan func(lo, hi int) (T, Stats)) ([]T, Stats) {
	chunk := (n + vaults - 1) / vaults
	parts := make([]T, vaults)
	stats := make([]Stats, vaults)
	active := 0
	var wg sync.WaitGroup
	for v := 0; v < vaults; v++ {
		lo := v * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		active++
		// The span starts before the goroutine launches so its duration
		// covers scheduling delay — exactly the skew a trace should show.
		vsp := sp.Start("vault",
			obs.Tag{Key: "vault", Value: v},
			obs.Tag{Key: "rows", Value: hi - lo},
			obs.Tag{Key: "queries", Value: queries})
		wg.Add(1)
		go func(v, lo, hi int, vsp *obs.Span) {
			defer wg.Done()
			parts[v], stats[v] = scan(lo, hi)
			vsp.End()
		}(v, lo, hi, vsp)
	}
	wg.Wait()
	var st Stats
	for _, vst := range stats[:active] {
		st.Add(vst)
	}
	return parts[:active], st
}

// scanVaults is fanVaults reduced with MergeVaults: scan returns one
// top-k list per query of the call (a single-query engine returns
// one), and the vault-local lists merge under the total order, query
// by query.
func scanVaults(n, vaults, k, queries int, sp *obs.Span, scan func(lo, hi int) ([][]topk.Result, Stats)) ([][]topk.Result, Stats) {
	parts, st := fanVaults(n, vaults, queries, sp, scan)
	return MergeVaults(k, queries, parts), st
}

// scanOne is the single-query engines' scan policy around one range
// scan: serial when one vault is configured or the dataset is under
// serialBelow rows, vault-parallel otherwise.
func scanOne(n, vaults, serialBelow, k int, sp *obs.Span, scan func(lo, hi int) ([]topk.Result, Stats)) ([]topk.Result, Stats) {
	if vaults == 1 || n < serialBelow {
		return scan(0, n)
	}
	out, st := scanVaults(n, vaults, k, 1, sp, func(lo, hi int) ([][]topk.Result, Stats) {
		res, st := scan(lo, hi)
		return [][]topk.Result{res}, st
	})
	return out[0], st
}
