// Package tier implements the out-of-core vector store behind
// ssam.Config.Storage: a region's float32 dataset lives in a backing
// file partitioned into vault-granularity pages (the same contiguous
// chunking the vault-parallel scan uses), and queries read pages
// through an admission-controlled hot-vault cache bounded by a
// configurable memory budget. The file is the source of truth; the
// cache only ever holds byte-identical copies of its pages, which is
// what makes out-of-core search results bit-identical to the in-RAM
// engines on the same data.
//
// Cache policy: clock (second-chance) eviction over resident pages.
// Pages pinned by an in-progress scan are never evicted — Acquire pins,
// Release unpins — so a budget smaller than one page degrades to
// read-scan-drop streaming rather than failing. Prefetch overlaps the
// next cold vault's read with the current vault's scan.
//
// The store is a deliberate test seam: reads go through an injectable
// fault hook, a fake clock drives the slow-read detector, and an
// eviction hook lets tests poison dropped pages to prove no reader
// holds one (use-after-evict shows up as NaN distances, never as a
// silently wrong neighbor).
package tier

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// File layout: a fixed 32-byte header followed by n·dim float32 rows,
// row-major, little-endian.
const (
	magic      = "SSAMTIER"
	version    = 1
	headerSize = 32
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("tier: store is closed")

// ReadError is a failed backing-store read for one vault page. Engines
// surface it (wrapped) instead of returning partial or wrong neighbors.
type ReadError struct {
	Vault int
	Err   error
}

func (e *ReadError) Error() string {
	return fmt.Sprintf("tier: vault %d read failed: %v", e.Vault, e.Err)
}

func (e *ReadError) Unwrap() error { return e.Err }

// PageError is a request for a page the store does not hold. A store's
// pages are 0..Vaults()-1, all non-empty; a walk that asks past them has
// its partition arithmetic wrong, and must be told rather than handed a
// page of negative length.
type PageError struct {
	Page  int
	Pages int
}

func (e *PageError) Error() string {
	return fmt.Sprintf("tier: page %d out of range [0,%d)", e.Page, e.Pages)
}

// SlowReadError reports a vault read that exceeded the configured
// ReadTimeout. The data was read but is discarded: a degraded storage
// device must surface as a typed error the serving layer can act on,
// not as silently slow (or stale) results.
type SlowReadError struct {
	Vault   int
	Elapsed time.Duration
	Limit   time.Duration
}

func (e *SlowReadError) Error() string {
	return fmt.Sprintf("tier: vault %d read took %v, limit %v", e.Vault, e.Elapsed, e.Limit)
}

// Options configures an opened store.
type Options struct {
	// BudgetBytes bounds the resident page cache; 0 means unlimited
	// (every page stays resident once read). Pinned pages may push
	// residency above the budget transiently; eviction restores it as
	// soon as pins drop.
	BudgetBytes int64
	// Prefetch enables overlapping the next cold vault's read with the
	// current vault's scan (engines call Prefetch; the option gates it).
	Prefetch bool
	// ReadTimeout, when positive, turns vault reads slower than this
	// into SlowReadError (measured on the store's clock, which tests
	// replace with a fake).
	ReadTimeout time.Duration
}

// Counters is a point-in-time snapshot of the store's cumulative work,
// safe to read concurrently with searches. The server exports it as
// /metrics series and the /statsz tiered block.
type Counters struct {
	Reads         uint64 // vault reads issued against the backing file
	BytesRead     uint64 // bytes read from the backing file
	CacheHits     uint64 // acquires satisfied by a resident page
	CacheMisses   uint64 // acquires that had to issue a read
	Evictions     uint64 // pages dropped by the clock policy
	PrefetchHits  uint64 // acquires satisfied by a completed prefetch
	Stalls        uint64 // acquires that waited on an in-flight read
	ResidentBytes int64  // current cache residency
	ResidentPages int
	BudgetBytes   int64
}

// page is one vault's resident (or loading) cache entry.
type page struct {
	vault      int
	data       []float32
	refs       int           // pins; >0 blocks eviction
	loading    bool          // read in flight
	ready      chan struct{} // closed when the load settles
	hot        bool          // clock reference bit
	prefetched bool          // loaded by Prefetch, not yet acquired
}

// Store serves vault pages of one backing file through a budgeted
// cache. All methods are safe for concurrent use.
type Store struct {
	f      *os.File
	dim    int
	n      int
	vaults int
	chunk  int // rows per vault page (last page may be short)

	budget      int64
	prefetch    bool
	readTimeout time.Duration

	// Test seams. Set before serving traffic; nil means no-op/real.
	readHook  func(vault int) error           // runs before each backing read
	evictHook func(vault int, data []float32) // runs as a page is dropped
	now       func() time.Time                // slow-read clock

	mu            sync.Mutex
	closed        bool
	pages         []*page // by vault; nil = not resident
	hand          int     // clock hand
	residentBytes int64

	reads, bytesRead, hits, misses  atomic.Uint64
	evictions, prefetchHits, stalls atomic.Uint64
}

// WriteFile writes a flattened row-major float32 dataset as a tier
// backing file partitioned for vaults scan partitions: pages of
// ceil(n/vaults) rows (the same contiguous chunking the vault-parallel
// scan uses). vaults must be positive and data a positive multiple of
// dim.
func WriteFile(path string, data []float32, dim, vaults int) error {
	if dim <= 0 || len(data) == 0 || len(data)%dim != 0 {
		return fmt.Errorf("tier: data length %d not a positive multiple of dim %d", len(data), dim)
	}
	if vaults <= 0 {
		return fmt.Errorf("tier: vaults must be positive, got %d", vaults)
	}
	n := len(data) / dim
	if vaults > n {
		vaults = n
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(dim))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(vaults))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(n))
	buf := make([]byte, headerSize+len(data)*4)
	copy(buf, hdr)
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[headerSize+i*4:], math.Float32bits(v))
	}
	return os.WriteFile(path, buf, 0o644)
}

// Open opens a backing file written by WriteFile. The header's vault
// count fixes the page size, ceil(n/vaults) rows; the store's pages are
// the ones that hold rows, which is fewer whenever the page size covers
// the rows early: 100 rows written for 32 vaults are 25 pages of 4, and
// a page 26 would start past the last row.
func Open(path string, opts Options) (*Store, error) {
	if opts.BudgetBytes < 0 {
		return nil, fmt.Errorf("tier: budget must be non-negative, got %d", opts.BudgetBytes)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tier: %s: reading header: %w", path, err)
	}
	if string(hdr[:8]) != magic {
		f.Close()
		return nil, fmt.Errorf("tier: %s is not a tier backing file", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != version {
		f.Close()
		return nil, fmt.Errorf("tier: %s: unsupported version %d", path, v)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[12:]))
	vaults := int(binary.LittleEndian.Uint32(hdr[16:]))
	n := int(binary.LittleEndian.Uint64(hdr[20:]))
	if dim <= 0 || n <= 0 || vaults <= 0 || vaults > n {
		f.Close()
		return nil, fmt.Errorf("tier: %s: corrupt header (dim=%d n=%d vaults=%d)", path, dim, n, vaults)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if want := int64(headerSize) + int64(n)*int64(dim)*4; fi.Size() < want {
		f.Close()
		return nil, fmt.Errorf("tier: %s: truncated (%d bytes, want %d)", path, fi.Size(), want)
	}
	chunk := (n + vaults - 1) / vaults
	vaults = (n + chunk - 1) / chunk
	return &Store{
		f:           f,
		dim:         dim,
		n:           n,
		vaults:      vaults,
		chunk:       chunk,
		budget:      opts.BudgetBytes,
		prefetch:    opts.Prefetch,
		readTimeout: opts.ReadTimeout,
		now:         time.Now,
		pages:       make([]*page, vaults),
	}, nil
}

// Create writes data to path and opens it — the region build path.
func Create(path string, data []float32, dim, vaults int, opts Options) (*Store, error) {
	if err := WriteFile(path, data, dim, vaults); err != nil {
		return nil, err
	}
	return Open(path, opts)
}

// Dim returns the vector dimensionality.
func (s *Store) Dim() int { return s.dim }

// Rows returns the dataset row count.
func (s *Store) Rows() int { return s.n }

// Vaults returns the page count. Every page holds at least one row.
func (s *Store) Vaults() int { return s.vaults }

// PageOf returns the vault page holding global row i.
func (s *Store) PageOf(i int) int { return i / s.chunk }

// PageRows returns the global row range [lo, hi) of vault page v, or a
// *PageError if the store has no such page.
func (s *Store) PageRows(v int) (lo, hi int, err error) {
	if v < 0 || v >= s.vaults {
		return 0, 0, &PageError{Page: v, Pages: s.vaults}
	}
	lo = v * s.chunk
	return lo, min(lo+s.chunk, s.n), nil
}

// SetReadHook installs a hook run before every backing-file read (fault
// injection: a non-nil error aborts the read as a ReadError). Set
// before serving traffic.
func (s *Store) SetReadHook(h func(vault int) error) { s.readHook = h }

// SetEvictHook installs a hook run as a page is dropped from the cache,
// receiving the page's backing slice (the poisoned-page test double
// overwrites it to prove no reader still holds it). Runs under the
// store lock. Set before serving traffic.
func (s *Store) SetEvictHook(h func(vault int, data []float32)) { s.evictHook = h }

// SetClock replaces the slow-read clock (test seam for deterministic
// SlowReadError coverage). Set before serving traffic.
func (s *Store) SetClock(now func() time.Time) { s.now = now }

// Counters returns a snapshot of the cumulative work counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	resident := s.residentBytes
	residentPages := 0
	for _, p := range s.pages {
		if p != nil && !p.loading {
			residentPages++
		}
	}
	s.mu.Unlock()
	return Counters{
		Reads:         s.reads.Load(),
		BytesRead:     s.bytesRead.Load(),
		CacheHits:     s.hits.Load(),
		CacheMisses:   s.misses.Load(),
		Evictions:     s.evictions.Load(),
		PrefetchHits:  s.prefetchHits.Load(),
		Stalls:        s.stalls.Load(),
		ResidentBytes: resident,
		ResidentPages: residentPages,
		BudgetBytes:   s.budget,
	}
}

// Page is a pinned, resident vault page. Release it when the scan is
// done; the data slice must not be used after Release.
type Page struct {
	s        *Store
	p        *page
	hit      bool
	released bool
}

// CacheHit reports whether this acquire was served from the resident
// cache (true) or had to read the backing file (false). Span tags use
// it to show per-vault cache behavior in /tracez.
func (pg *Page) CacheHit() bool { return pg.hit }

// Data returns the page's rows, flattened row-major.
func (pg *Page) Data() []float32 { return pg.p.data }

// Rows returns the page's global row range [lo, hi).
func (pg *Page) Rows() (lo, hi int) {
	lo, hi, _ = pg.s.PageRows(pg.p.vault) // a pinned page is one the store has
	return lo, hi
}

// Row returns the vector at global row index i (which must lie inside
// the page's range).
func (pg *Page) Row(i int) []float32 {
	lo, _ := pg.Rows()
	off := (i - lo) * pg.s.dim
	return pg.p.data[off : off+pg.s.dim]
}

// Release unpins the page. Idempotent.
func (pg *Page) Release() {
	if pg.released {
		return
	}
	pg.released = true
	s := pg.s
	s.mu.Lock()
	pg.p.refs--
	if pg.p.refs == 0 {
		// The page just became evictable: restore the budget now rather
		// than waiting for the next miss, so a pinned overshoot is
		// transient by construction.
		s.evictLocked(nil)
	}
	s.mu.Unlock()
}

// Acquire pins vault page v, reading it from the backing file on a
// cache miss. Concurrent acquires of the same cold page issue one read
// (waiters count as stalls). The returned page stays resident until
// released, regardless of budget. A page the store does not hold is a
// *PageError.
func (s *Store) Acquire(v int) (*Page, error) {
	if _, _, err := s.PageRows(v); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, ErrClosed
		}
		hit := false
		p := s.pages[v]
		switch {
		case p == nil:
			p = &page{vault: v, loading: true, ready: make(chan struct{})}
			s.pages[v] = p
			s.misses.Add(1)
			data, err := s.readVault(v) // drops the lock around the IO
			if err != nil {
				s.pages[v] = nil
				close(p.ready)
				return nil, err
			}
			p.data = data
			p.loading = false
			s.residentBytes += int64(len(data)) * 4
			close(p.ready)
			s.evictLocked(p)
		case p.loading:
			// Someone else is reading this page: wait for the read to
			// settle, then re-examine (it may have failed and vanished, in
			// which case this acquire retries as a fresh miss).
			s.stalls.Add(1)
			ready := p.ready
			s.mu.Unlock()
			<-ready
			s.mu.Lock()
			continue
		default:
			hit = true
			s.hits.Add(1)
			if p.prefetched {
				p.prefetched = false
				s.prefetchHits.Add(1)
			}
		}
		p = s.pages[v]
		p.refs++
		p.hot = true
		return &Page{s: s, p: p, hit: hit}, nil
	}
}

// Prefetch starts an asynchronous read of vault page v if it is neither
// resident nor already loading. A no-op when the store was opened
// without Prefetch; read failures are dropped (the demand Acquire
// retries and surfaces them).
func (s *Store) Prefetch(v int) {
	if !s.prefetch || v < 0 || v >= s.vaults {
		return
	}
	s.mu.Lock()
	if s.closed || s.pages[v] != nil {
		s.mu.Unlock()
		return
	}
	p := &page{vault: v, loading: true, prefetched: true, ready: make(chan struct{})}
	s.pages[v] = p
	s.mu.Unlock()
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		data, err := s.readVault(v) // drops the lock around the IO
		if err != nil || s.closed {
			s.pages[v] = nil
			close(p.ready)
			return
		}
		p.data = data
		p.loading = false
		s.residentBytes += int64(len(data)) * 4
		close(p.ready)
		s.evictLocked(p)
	}()
}

// readVault reads one vault page from the backing file. Called with
// s.mu held; the lock is dropped for the IO and re-taken, which is safe
// because the caller has already published a loading page entry that
// serializes access to this vault. The re-take is deferred: callers
// unlock on their way out, and a panic inside the IO window (a read
// hook's, say) must reach them holding the lock or their unlock is the
// runtime's unrecoverable "unlock of unlocked mutex" over the panic.
func (s *Store) readVault(v int) ([]float32, error) {
	s.mu.Unlock()
	defer s.mu.Lock()
	return s.readVaultIO(v)
}

func (s *Store) readVaultIO(v int) ([]float32, error) {
	start := s.now()
	if h := s.readHook; h != nil {
		if err := h(v); err != nil {
			return nil, &ReadError{Vault: v, Err: err}
		}
	}
	lo, hi, err := s.PageRows(v)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, (hi-lo)*s.dim*4)
	off := int64(headerSize) + int64(lo)*int64(s.dim)*4
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, &ReadError{Vault: v, Err: err}
	}
	if s.readTimeout > 0 {
		if el := s.now().Sub(start); el > s.readTimeout {
			return nil, &SlowReadError{Vault: v, Elapsed: el, Limit: s.readTimeout}
		}
	}
	data := make([]float32, (hi-lo)*s.dim)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	s.reads.Add(1)
	s.bytesRead.Add(uint64(len(buf)))
	return data, nil
}

// evictLocked drops unpinned pages under the clock policy until
// residency fits the budget. keep, if non-nil, is exempt (the page the
// caller is about to pin). All pages pinned means the overshoot stands
// until a Release re-runs eviction.
func (s *Store) evictLocked(keep *page) {
	if s.budget <= 0 {
		return
	}
	for s.residentBytes > s.budget {
		victim := s.clockVictimLocked(keep)
		if victim == nil {
			return
		}
		s.dropLocked(victim)
	}
}

// clockVictimLocked sweeps the clock hand over resident pages: a hot
// page gets its reference bit cleared (second chance), the first cold
// unpinned page is the victim. Two full sweeps with no victim means
// everything evictable is pinned.
func (s *Store) clockVictimLocked(keep *page) *page {
	for i := 0; i < 2*s.vaults; i++ {
		p := s.pages[s.hand]
		s.hand = (s.hand + 1) % s.vaults
		if p == nil || p.loading || p.refs > 0 || p == keep {
			continue
		}
		if p.hot {
			p.hot = false
			continue
		}
		return p
	}
	return nil
}

func (s *Store) dropLocked(p *page) {
	s.pages[p.vault] = nil
	s.residentBytes -= int64(len(p.data)) * 4
	s.evictions.Add(1)
	if h := s.evictHook; h != nil {
		h(p.vault, p.data)
	}
}

// Close drops the cache and closes the backing file. Outstanding pages
// must be released first; subsequent operations return ErrClosed. A nil
// store — what an engine over resident rows has — closes to nothing.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for i, p := range s.pages {
		if p != nil && !p.loading {
			s.pages[i] = nil
		}
	}
	s.residentBytes = 0
	s.mu.Unlock()
	return s.f.Close()
}
