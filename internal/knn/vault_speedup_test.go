package knn

import (
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"ssam/internal/vec"
)

// multiCoreGateEnv opts the vault-speedup gate in. On a box with one
// or two cores vault goroutines timeshare and speedups stay near 1x,
// so the wall-clock claim "vault parallelism beats the serial scan"
// cannot be asserted by default without failing on small CI machines.
// Set the variable on a >=4-physical-core box to turn the claim into a
// hard assertion:
//
//	SSAM_MULTICORE_GATE=1 go test ./internal/knn -run VaultSpeedupMultiCore -v
const multiCoreGateEnv = "SSAM_MULTICORE_GATE"

// TestVaultSpeedupMultiCore is the honest version of ROADMAP item 3's
// vaults claim: on real parallel hardware (GOMAXPROCS >= 4), the
// vault-parallel scan of a GIST-shaped dataset must beat the serial
// scan by >= 1.5x wall-clock. Skipped unless SSAM_MULTICORE_GATE is
// set, and skipped (not failed) when the process has fewer than four
// schedulable cores — the gate tests the hardware claim, not the
// scheduler's ability to timeshare.
func TestVaultSpeedupMultiCore(t *testing.T) {
	if os.Getenv(multiCoreGateEnv) == "" {
		t.Skipf("set %s=1 on a multi-core machine to enforce the vault speedup gate", multiCoreGateEnv)
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("GOMAXPROCS=%d < 4: gate needs real parallel hardware (NumCPU=%d)", procs, runtime.NumCPU())
	}

	const (
		dim = 960 // GIST shape: enough per-row math to amortize fan-out
		n   = 16384
		k   = 10
	)
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	queries := make([][]float32, 32)
	for i := range queries {
		q := make([]float32, dim)
		for j := range q {
			q[j] = rng.Float32()
		}
		queries[i] = q
	}

	serial := NewEngine(data, dim, vec.Euclidean, 1)
	vaults := procs
	if vaults > MaxVaults {
		vaults = MaxVaults
	}
	parallel := NewEngine(data, dim, vec.Euclidean, vaults)
	parallel.SetSerialThreshold(0)

	measure := func(e *Engine) float64 {
		// Warm once so page faults and scheduler ramp-up land outside
		// the timed window, then time three passes over the query set.
		for _, q := range queries {
			e.Search(q, k)
		}
		start := time.Now()
		for pass := 0; pass < 3; pass++ {
			for _, q := range queries {
				e.Search(q, k)
			}
		}
		return time.Since(start).Seconds()
	}

	serialSec := measure(serial)
	parallelSec := measure(parallel)
	speedup := serialSec / parallelSec
	t.Logf("GOMAXPROCS=%d NumCPU=%d vaults=%d: serial %.3fs, parallel %.3fs, speedup %.2fx",
		procs, runtime.NumCPU(), vaults, serialSec, parallelSec, speedup)
	if speedup < 1.5 {
		t.Errorf("vault-parallel speedup %.2fx < 1.5x on %d schedulable cores", speedup, procs)
	}
}
