package ssam_test

// The wall-clock gates, off unless SSAM_TIMING_GATES is set, so that
// go test ./... and its race run hold no timing bound. A floor rises to
// 25 % under the healthy median reading once it sits further below (a
// ceiling falls likewise), and is never loosened.

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ssam"
	"ssam/internal/knn"
	"ssam/internal/pq"
	"ssam/internal/vec"
)

const timingGatesEnv = "SSAM_TIMING_GATES"

// A gate reads gateRounds ratios, each over gateSlices slices a side.
const gateRounds, gateSlices = 11, 20

var timingSink float64

// pairedRatios reads the time of a call to a over a call to b, once a
// round. A round runs nslices slices of calls[0] calls to a and calls[1]
// to b, the side that runs first flipping every slice, so a burst of
// interference or a change of clock speed falls on both, the more alike
// the closer the two slices are in length. One untimed slice of each
// side runs first.
func pairedRatios(a, b func(), rounds, nslices int, calls [2]int) []float64 {
	sides := [2]func(){a, b}
	slice := func(side int) time.Duration {
		start := time.Now()
		for range calls[side] {
			sides[side]()
		}
		return time.Since(start)
	}
	slice(0)
	slice(1)
	ratios := make([]float64, rounds)
	for r := range ratios {
		var took [2]time.Duration
		for s := range nslices {
			first := s % 2
			took[first] += slice(first)
			took[1-first] += slice(1 - first)
		}
		ratios[r] = float64(took[0]) / float64(took[1]) * float64(calls[1]) / float64(calls[0])
	}
	return ratios
}

// TestPairedRatios holds the reader's shape without the clock.
func TestPairedRatios(t *testing.T) {
	var order strings.Builder
	ratios := pairedRatios(func() { order.WriteByte('a') }, func() { order.WriteByte('b') }, 2, 3, [2]int{2, 1})
	const round = "aab" + "baa" + "aab"
	if want := "aab" + round + round; len(ratios) != 2 || order.String() != want {
		t.Fatalf("%d ratios, call order %q; want 2 and %q", len(ratios), order.String(), want)
	}
}

// TestTimingGates holds the repo's measured ratios on the 4096 x 64
// shape, k = 10. Run it at -cpu 1: with more cores the float scan's
// vault fan-out divides its time, and a ratio measures parallelism.
func TestTimingGates(t *testing.T) {
	if os.Getenv(timingGatesEnv) == "" {
		t.Skipf("set %s=1 to enforce the wall-clock gates", timingGatesEnv)
	}
	host, q := benchRegion(t, 4096, 64)
	quant, _ := benchRegionPQ(t)
	tiered, _ := benchRegionTiered(t)
	qs := batch16Queries()
	search := func(r *ssam.Region) func() {
		return func() {
			if _, err := r.Search(q, 10); err != nil {
				panic(err) // a subtest's goroutine runs it: no t.Fatal
			}
		}
	}
	batch := func(r *ssam.Region) func() {
		return func() {
			if _, err := r.SearchBatch(qs, 10); err != nil {
				panic(err) // a subtest's goroutine runs it: no t.Fatal
			}
		}
	}
	block, scan := kernelPair(t)
	rows, _ := benchData(3, 4096, 64)
	// The limits for the assembly kernels, and for the pure-Go ones
	// (block and ADC run assembly on the same CPUs). The pure-Go block
	// kernel widens a row once per four queries, not once per batch, so a
	// batch costs more single scans there; the pure-Go ADC kernel is half
	// the assembly's speed, so the kernel pair's floor is the one held
	// before the assembly.
	batchLimit, blockLimit, scanFloor := 7.0, 6.0, 9.4
	if ssam.ScanKernel() != "avx2" {
		batchLimit, blockLimit, scanFloor = 12, 12, 5.9
	}

	gates := []struct {
		name  string
		a, b  func()
		op    string // ">=": limit is a floor; "<=": a ceiling
		limit float64
		calls [2]int // to each side a slice, about equal in time
	}{
		// The whole quantized search (table, pilot, ADC pass, re-rank)
		// against the float32 scan. A loss in pq.Scan alone barely
		// moves it: the next row guards the kernel.
		{"float32_vs_quantized", search(host), search(quant), ">=", 2.1, [2]int{10, 28}},
		// The float block scan of the shape's rows at B = 1 against
		// pq.Codes.Scan of their codes (M = 8).
		{"block_vs_pq_scan", block, scan, ">=", scanFloor, [2]int{25, 320}},
		// A fully-cached tiered scan adds page pins and the vault merge;
		// it reads 1.45x when the two scans stop sharing one kernel.
		{"tiered_vs_in_ram", search(tiered), search(host), "<=", 1.2, [2]int{10, 10}},
		// The block kernel widens four rows once per batch; an untiled
		// batch reads 16.
		{"batch16_vs_single", batch(host), search(host), "<=", batchLimit, [2]int{2, 11}},
		// The tiered batch is the in-RAM one's loop over another row
		// source. If this trips and the gate above does not, the two
		// have forked: look for a second walk beside knn.WalkVaults.
		{"tiered_batch16_vs_single", batch(tiered), search(tiered), "<=", batchLimit, [2]int{2, 11}},
		// The batch gates' kernel alone, over the same rows: B = 16
		// against B = 1. A block that widens its rows once per four
		// queries, not once per call, reads 6.7x here and slips under the
		// two ceilings above.
		{"block16_vs_block1", blockScan(rows, 64, qs), blockScan(rows, 64, qs[:1]), "<=", blockLimit, [2]int{2, 10}},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			ratios := pairedRatios(g.a, g.b, gateRounds, gateSlices, g.calls)
			slices.Sort(ratios)
			med := ratios[len(ratios)/2]
			t.Logf("%.2fx (want %s %.2fx; sorted rounds %.2f)", med, g.op, g.limit, ratios)
			if g.op == ">=" && med < g.limit || g.op == "<=" && med > g.limit {
				load, _ := os.ReadFile("/proc/loadavg")
				t.Errorf("median %.2fx, want %s %.2fx; load average %s", med, g.op, g.limit, strings.TrimSpace(string(load)))
			}
		})
	}
}

// blockScan returns a vec.Tile.Block pass of qs over data's rows of
// dims elements, four rows a call.
func blockScan(data []float32, dims int, qs [][]float32) func() {
	tile := vec.NewTile(vec.Euclidean, qs)
	lanes, out := tile.Lanes(), make([]float64, vec.BlockRows*len(qs))
	return func() {
		var four [vec.BlockRows][]float32
		for at := 0; at < len(data); at += vec.BlockRows * dims {
			for r := range four {
				four[r] = data[at+r*dims : at+(r+1)*dims]
			}
			tile.Block(&four, lanes, out)
			timingSink += out[0]
		}
	}
}

// kernelPair returns a float block scan of the gates' rows (B = 1) and
// a pq.Codes.Scan of their M = 8 codes, both against the gates' query.
func kernelPair(t *testing.T) (block, scan func()) {
	const rows, dims = 4096, 64
	data, q := benchData(3, rows, dims)
	cb, err := pq.Train(data, dims, pq.Params{M: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	codes := pq.Pack(cb.Encode(data), cb.M())
	lut := cb.Table(vec.Euclidean, q, make([]float32, cb.M()*pq.Ks))
	scan = func() {
		codes.Scan(lut, 0, rows, func(_ int, dists []float32) { timingSink += float64(dists[0]) })
	}
	return blockScan(data, dims, [][]float32{q}), scan
}

// TestVaultSpeedupMultiCore holds that the vault-parallel scan of a
// GIST-shaped dataset beats the serial one by >= 1.5x. It skips below
// four cores, where vaults timeshare: it tests hardware, not scheduler.
func TestVaultSpeedupMultiCore(t *testing.T) {
	if os.Getenv(timingGatesEnv) == "" {
		t.Skipf("set %s=1 on a multi-core machine to enforce the vault speedup gate", timingGatesEnv)
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("GOMAXPROCS=%d < 4: gate needs real parallel hardware (NumCPU=%d)", procs, runtime.NumCPU())
	}
	const dim = 960 // GIST shape: enough per-row math to amortize fan-out
	data, q := benchData(3, 16384, dim)
	vaults := min(procs, knn.MaxVaults)
	serial, parallel := knn.NewEngine(data, dim, vec.Euclidean, 1), knn.NewEngine(data, dim, vec.Euclidean, vaults)
	parallel.SetSerialThreshold(0)
	ratios := pairedRatios(func() { serial.Search(q, 10) }, func() { parallel.Search(q, 10) }, gateRounds, 2, [2]int{8, 8})
	slices.Sort(ratios)
	s := ratios[len(ratios)/2]
	t.Logf("GOMAXPROCS=%d NumCPU=%d vaults=%d: speedup %.2fx (sorted rounds %.2f)", procs, runtime.NumCPU(), vaults, s, ratios)
	if s < 1.5 {
		t.Errorf("vault-parallel speedup %.2fx < 1.5x on %d schedulable cores", s, procs)
	}
}
