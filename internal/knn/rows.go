package knn

// Where a block of float32 rows comes from is the one thing that differs
// between an in-RAM engine and an out-of-core one (PAPER §IV, Fig. 4:
// the region is filled, then the per-vault units stream it, wherever it
// sits). The exact scan (ExactScan.Run) and the quantized re-rank
// (PQScan.rerankRows) are written once over a rowSource and consult it
// once per partition per call, never per row: what it hands back is a
// flat block that the row loop indexes itself.
//
// The bit-exactness contract: a scan over a store returns ids, order
// and distances identical to the same scan over the slab the store was
// written from. It holds because the store serves byte-identical copies
// of the file's pages, a page holds exactly the rows of the slab's
// partition of the same index, both go through the same loop, and the
// partitions' lists are reduced under the (distance, id) total order
// (vault.go). Storage faults surface as errors, never as partial or
// wrong neighbor lists.

import (
	"fmt"

	"ssam/internal/obs"
	"ssam/internal/tier"
)

type rowSource interface {
	// pin makes rows [lo, hi), partition v of the walk, readable as one
	// flat block until release is called, and tags sp (nil-safe) with
	// what serving them took.
	pin(v, lo, hi int, sp *obs.Span) (rows []float32, release func(), err error)
	// pages is the store whose pages are the partitions, or nil when the
	// rows are resident. Over a store the caller pins one partition at a
	// time, in ascending order: a budget smaller than the dataset means
	// something only if a scan does not hold the dataset pinned, and
	// ascending reads are sequential IO the store can prefetch.
	pages() *tier.Store
}

// slab is rows resident in one allocation: a partition is a slice of it,
// any number can be read at once, and nothing needs releasing.
type slab struct {
	data []float32
	dim  int
}

func (s slab) pin(_, lo, hi int, _ *obs.Span) ([]float32, func(), error) {
	return s.data[lo*s.dim : hi*s.dim], func() {}, nil
}

func (slab) pages() *tier.Store { return nil }

// paged is rows in a tier store's backing file: partition v is page v,
// pinned in the store's budgeted cache while it is read.
type paged struct{ store *tier.Store }

func (p paged) pin(v, lo, hi int, sp *obs.Span) ([]float32, func(), error) {
	pg, err := p.store.Acquire(v)
	if err != nil {
		return nil, nil, fmt.Errorf("knn: reading rows [%d,%d): %w", lo, hi, err)
	}
	// The walk and the store each work out the partition bounds. They
	// agree by construction; if they ever do not, the row loop would read
	// other rows than it reports, so say so here.
	if plo, phi := pg.Rows(); plo != lo || phi != hi {
		pg.Release()
		return nil, nil, fmt.Errorf("knn: page %d holds rows [%d,%d), the scan expects [%d,%d)", v, plo, phi, lo, hi)
	}
	sp.SetTag("tier_hit", pg.CacheHit())
	return pg.Data(), pg.Release, nil
}

func (p paged) pages() *tier.Store { return p.store }
