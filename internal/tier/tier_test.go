package tier

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// testData returns a deterministic n×dim dataset.
func testData(n, dim int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	return data
}

func mustCreate(t *testing.T, data []float32, dim, vaults int, opts Options) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tier.dat")
	s, err := Create(path, data, dim, vaults, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	const n, dim, vaults = 37, 5, 4
	data := testData(n, dim, 1)
	s := mustCreate(t, data, dim, vaults, Options{})
	if s.Rows() != n || s.Dim() != dim || s.Vaults() != vaults {
		t.Fatalf("shape = %d x %d over %d vaults, want %d x %d over %d",
			s.Rows(), s.Dim(), s.Vaults(), n, dim, vaults)
	}
	seen := 0
	for v := 0; v < s.Vaults(); v++ {
		pg, err := s.Acquire(v)
		if err != nil {
			t.Fatalf("Acquire(%d): %v", v, err)
		}
		lo, hi := pg.Rows()
		for i := lo; i < hi; i++ {
			row := pg.Row(i)
			for j, got := range row {
				if want := data[i*dim+j]; got != want {
					t.Fatalf("row %d dim %d = %v, want %v", i, j, got, want)
				}
			}
			seen++
		}
		pg.Release()
	}
	if seen != n {
		t.Fatalf("pages covered %d rows, want %d", seen, n)
	}
}

func TestPageRowsPartition(t *testing.T) {
	// 10 rows over 4 vaults: chunk 3 → pages of 3,3,3,1.
	s := mustCreate(t, testData(10, 2, 2), 2, 4, Options{})
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	for v, w := range want {
		lo, hi, err := s.PageRows(v)
		if err != nil || lo != w[0] || hi != w[1] {
			t.Fatalf("PageRows(%d) = [%d,%d), %v, want [%d,%d)", v, lo, hi, err, w[0], w[1])
		}
	}
}

// TestRaggedPages pins the page count of row counts the vault count
// does not divide: ceil(n/vaults) rows a page cover the rows in fewer
// than vaults pages, and the store must hold exactly the pages that have
// rows — counting the empty tail put Acquire at a page starting past the
// last row, a read of negative length, and (the store lock being dropped
// for the read) an unrecoverable double unlock.
func TestRaggedPages(t *testing.T) {
	const dim = 3
	for _, c := range []struct{ n, vaults, pages int }{
		{33, 32, 17}, {100, 32, 25}, {10, 8, 5}, {9, 4, 3}, {5, 4, 3}, {1, 1, 1},
	} {
		label := fmt.Sprintf("n=%d vaults=%d", c.n, c.vaults)
		data := testData(c.n, dim, int64(c.n))
		s := mustCreate(t, data, dim, c.vaults, Options{Prefetch: true})
		if s.Vaults() != c.pages {
			t.Fatalf("%s: %d pages, want %d", label, s.Vaults(), c.pages)
		}
		next := 0
		for v := 0; v < s.Vaults(); v++ {
			s.Prefetch(v + 1) // past the last page on the last turn: ignored
			pg, err := s.Acquire(v)
			if err != nil {
				t.Fatalf("%s: Acquire(%d): %v", label, v, err)
			}
			lo, hi := pg.Rows()
			if lo != next || hi <= lo || len(pg.Data()) != (hi-lo)*dim {
				t.Fatalf("%s: page %d is rows [%d,%d) over %d floats, want a non-empty page from %d",
					label, v, lo, hi, len(pg.Data()), next)
			}
			if got := s.PageOf(hi - 1); got != v {
				t.Fatalf("%s: PageOf(%d) = %d, want %d", label, hi-1, got, v)
			}
			if &pg.Row(lo)[0] != &pg.Data()[0] || pg.Row(hi - 1)[dim-1] != data[hi*dim-1] {
				t.Fatalf("%s: page %d rows do not line up with the data", label, v)
			}
			next = hi
			pg.Release()
		}
		if next != c.n {
			t.Fatalf("%s: pages cover %d rows", label, next)
		}
		// Every page the configured count promised beyond those is refused.
		var pe *PageError
		for v := s.Vaults(); v <= c.vaults; v++ {
			if _, err := s.Acquire(v); !errors.As(err, &pe) || pe.Page != v || pe.Pages != s.Vaults() {
				t.Fatalf("%s: Acquire(%d) = %v, want *PageError", label, v, err)
			}
			if _, _, err := s.PageRows(v); !errors.As(err, &pe) {
				t.Fatalf("%s: PageRows(%d) = %v, want *PageError", label, v, err)
			}
		}
	}
}

// TestPanicInReadWindowKeepsTheLock pins the deferred re-lock in
// readVault: a panic while the store lock is dropped for the IO must
// unwind through Acquire's deferred unlock as an ordinary panic.
func TestPanicInReadWindowKeepsTheLock(t *testing.T) {
	s := mustCreate(t, testData(8, 2, 14), 2, 2, Options{})
	s.SetReadHook(func(int) error { panic("hook blew up") })
	func() {
		defer func() {
			if r := recover(); r != "hook blew up" {
				t.Fatalf("recovered %v, want the hook's panic", r)
			}
		}()
		s.Acquire(0)
	}()
	// The lock is free again: the other page still serves.
	s.SetReadHook(nil)
	pg, err := s.Acquire(1)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
}

func TestVaultsClampToRows(t *testing.T) {
	// More vaults than rows: one row a page, so every page is non-empty.
	s := mustCreate(t, testData(3, 2, 3), 2, 8, Options{})
	if s.Vaults() != 3 {
		t.Fatalf("vaults = %d, want 3 (clamped to row count)", s.Vaults())
	}
}

func TestWriteFileValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.dat")
	if err := WriteFile(path, []float32{1, 2, 3}, 2, 1); err == nil {
		t.Fatal("WriteFile accepted data not a multiple of dim")
	}
	if err := WriteFile(path, nil, 2, 1); err == nil {
		t.Fatal("WriteFile accepted empty data")
	}
	if err := WriteFile(path, []float32{1, 2}, 2, 0); err == nil {
		t.Fatal("WriteFile accepted zero vaults")
	}
}

func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.dat")
	if err := WriteFile(good, testData(8, 2, 4), 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(good, Options{BudgetBytes: -1}); err == nil {
		t.Fatal("Open accepted a negative budget")
	}
	if _, err := Open(filepath.Join(dir, "absent.dat"), Options{}); err == nil {
		t.Fatal("Open accepted a missing file")
	}
	junk := filepath.Join(dir, "junk.dat")
	if err := os.WriteFile(junk, []byte("not a tier file at all......."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk, Options{}); err == nil {
		t.Fatal("Open accepted a non-tier file")
	}
	// Truncated body: valid header, missing rows.
	full, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.dat")
	if err := os.WriteFile(trunc, full[:len(full)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc, Options{}); err == nil {
		t.Fatal("Open accepted a truncated file")
	}
}

func TestCacheHitsAndMisses(t *testing.T) {
	s := mustCreate(t, testData(40, 4, 4), 4, 4, Options{})
	for pass := 0; pass < 3; pass++ {
		for v := 0; v < s.Vaults(); v++ {
			pg, err := s.Acquire(v)
			if err != nil {
				t.Fatal(err)
			}
			pg.Release()
		}
	}
	c := s.Counters()
	if c.CacheMisses != 4 {
		t.Fatalf("misses = %d, want 4 (one per page, unlimited budget)", c.CacheMisses)
	}
	if c.CacheHits != 8 {
		t.Fatalf("hits = %d, want 8", c.CacheHits)
	}
	if c.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 under unlimited budget", c.Evictions)
	}
	if c.Reads != 4 || c.BytesRead != 40*4*4 {
		t.Fatalf("reads = %d bytes = %d, want 4 reads of %d bytes total", c.Reads, c.BytesRead, 40*4*4)
	}
	if c.ResidentPages != 4 || c.ResidentBytes != 40*4*4 {
		t.Fatalf("resident = %d pages %d bytes, want all 4 pages", c.ResidentPages, c.ResidentBytes)
	}
}

func TestBudgetEviction(t *testing.T) {
	// 4 pages of 10 rows × 4 dims × 4 bytes = 160 bytes each; budget
	// holds exactly two.
	s := mustCreate(t, testData(40, 4, 5), 4, 4, Options{BudgetBytes: 320})
	for v := 0; v < 4; v++ {
		pg, err := s.Acquire(v)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	c := s.Counters()
	if c.ResidentBytes > 320 {
		t.Fatalf("resident %d bytes exceeds 320-byte budget after releases", c.ResidentBytes)
	}
	if c.Evictions == 0 {
		t.Fatal("no evictions under a 2-page budget with 4 pages touched")
	}
	if c.ResidentPages != 2 {
		t.Fatalf("resident pages = %d, want 2", c.ResidentPages)
	}
}

func TestBudgetSmallerThanOnePage(t *testing.T) {
	// Budget below one page: every scan streams read-scan-drop, but
	// acquires never fail — the pinned page overshoots transiently.
	s := mustCreate(t, testData(40, 4, 6), 4, 4, Options{BudgetBytes: 64})
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < 4; v++ {
			pg, err := s.Acquire(v)
			if err != nil {
				t.Fatal(err)
			}
			if len(pg.Data()) != 40 {
				t.Fatalf("page %d has %d floats, want 40", v, len(pg.Data()))
			}
			pg.Release()
		}
	}
	c := s.Counters()
	if c.CacheMisses != 8 {
		t.Fatalf("misses = %d, want 8 (nothing can stay resident)", c.CacheMisses)
	}
	if c.ResidentBytes != 0 {
		t.Fatalf("resident = %d bytes after releases, want 0", c.ResidentBytes)
	}
}

func TestPinnedPagesSurviveEviction(t *testing.T) {
	// Hold every page pinned with a budget of one page: nothing may be
	// evicted while pinned, and the data must stay valid.
	data := testData(40, 4, 7)
	s := mustCreate(t, data, 4, 4, Options{BudgetBytes: 160})
	var pages []*Page
	for v := 0; v < 4; v++ {
		pg, err := s.Acquire(v)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, pg)
	}
	if c := s.Counters(); c.Evictions != 0 {
		t.Fatalf("evicted %d pinned pages", c.Evictions)
	}
	for v, pg := range pages {
		lo, _ := pg.Rows()
		if got, want := pg.Row(lo)[0], data[lo*4]; got != want {
			t.Fatalf("pinned page %d row %d = %v, want %v", v, lo, got, want)
		}
		pg.Release()
	}
	if c := s.Counters(); c.ResidentBytes > 160 {
		t.Fatalf("resident %d bytes after releases, want <= one-page budget", c.ResidentBytes)
	}
}

func TestClockSecondChance(t *testing.T) {
	// Two-page budget over four pages. Touch 0 and 1, then stream 2 and
	// 3: the clock must rotate victims rather than thrash one slot.
	s := mustCreate(t, testData(40, 4, 8), 4, 4, Options{BudgetBytes: 320})
	for _, v := range []int{0, 1, 2, 3, 0, 1, 2, 3} {
		pg, err := s.Acquire(v)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	c := s.Counters()
	if c.ResidentPages != 2 {
		t.Fatalf("resident pages = %d, want 2", c.ResidentPages)
	}
	if c.Evictions < 4 {
		t.Fatalf("evictions = %d, want >= 4 across two sweeps", c.Evictions)
	}
}

func TestConcurrentAcquireSingleRead(t *testing.T) {
	s := mustCreate(t, testData(64, 8, 9), 8, 2, Options{})
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pg, err := s.Acquire(0)
			if err != nil {
				errs <- err
				return
			}
			pg.Release()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Reads != 1 {
		t.Fatalf("reads = %d, want 1 (concurrent cold acquires must coalesce)", c.Reads)
	}
	if c.CacheMisses != 1 {
		t.Fatalf("misses = %d, want 1", c.CacheMisses)
	}
	if c.CacheHits+c.Stalls < goroutines-1 {
		t.Fatalf("hits %d + stalls %d don't account for %d waiters", c.CacheHits, c.Stalls, goroutines-1)
	}
}

func TestPrefetch(t *testing.T) {
	s := mustCreate(t, testData(40, 4, 10), 4, 4, Options{Prefetch: true})
	s.Prefetch(2)
	// Acquire blocks until the prefetch settles, then counts a hit.
	pg, err := s.Acquire(2)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	c := s.Counters()
	if c.PrefetchHits != 1 {
		t.Fatalf("prefetch hits = %d, want 1", c.PrefetchHits)
	}
	if c.CacheMisses != 0 {
		t.Fatalf("misses = %d, want 0 (prefetch absorbed the cold read)", c.CacheMisses)
	}
	// Prefetch of a resident page is a no-op.
	s.Prefetch(2)
	if c := s.Counters(); c.Reads != 1 {
		t.Fatalf("reads = %d after redundant prefetch, want 1", c.Reads)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	s := mustCreate(t, testData(40, 4, 11), 4, 4, Options{})
	s.Prefetch(1)
	if c := s.Counters(); c.Reads != 0 {
		t.Fatalf("prefetch read %d pages with Prefetch off", c.Reads)
	}
}

func TestAcquireOutOfRange(t *testing.T) {
	s := mustCreate(t, testData(8, 2, 12), 2, 2, Options{})
	if _, err := s.Acquire(-1); err == nil {
		t.Fatal("Acquire(-1) succeeded")
	}
	if _, err := s.Acquire(2); err == nil {
		t.Fatal("Acquire(vaults) succeeded")
	}
}

func TestDoubleReleaseIsIdempotent(t *testing.T) {
	s := mustCreate(t, testData(8, 2, 13), 2, 2, Options{})
	pg, err := s.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	pg.Release() // must not underflow refs
	pg2, err := s.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	pg2.Release()
}

func TestClose(t *testing.T) {
	s := mustCreate(t, testData(8, 2, 14), 2, 2, Options{})
	pg, err := s.Acquire(0)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Acquire(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
	if c := s.Counters(); c.ResidentBytes != 0 {
		t.Fatalf("resident %d bytes after Close", c.ResidentBytes)
	}
}
