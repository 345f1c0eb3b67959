package vec

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardPages hands out slices that end flush against a PROT_NONE page,
// so that a read or write one element past one faults instead of
// passing unnoticed, and unmaps them all on release.
type guardPages struct {
	t    *testing.T
	maps [][]byte
}

func (g *guardPages) release() {
	for _, mem := range g.maps {
		if err := syscall.Munmap(mem); err != nil {
			g.t.Fatalf("munmap: %v", err)
		}
	}
	g.maps = g.maps[:0]
}

// guarded returns n elements of T from g, n >= 1.
func guarded[T float32 | float64](g *guardPages, n int) []T {
	t := g.t
	t.Helper()
	var zero T
	page := syscall.Getpagesize()
	bytes := n * int(unsafe.Sizeof(zero))
	body := (bytes + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	g.maps = append(g.maps, mem)
	if err := syscall.Mprotect(mem[body:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[body-bytes])), n)
}

// TestBlockStaysInBounds runs the assembly with every buffer it touches
// — the four rows, the widened queries, the lanes and out — ending flush
// against an unmapped page, for every dim % 8 the widening loop and its
// Go tail split on and every width % 4 the query kernels split on: the
// kernel reads not one element past a row or a query and writes not one
// past lanes or out. (A fault here kills the test binary; that is the
// failure report.) The answers are checked too, so the run is not
// vacuous.
func TestBlockStaysInBounds(t *testing.T) {
	if blockAVX2 == nil {
		t.Skip("no AVX2 kernel on this CPU")
	}
	g := &guardPages{t: t}
	defer g.release()
	for _, m := range []Metric{Euclidean, Manhattan, Cosine} {
		for dim := 1; dim <= 33; dim++ {
			for width := 1; width <= 9; width++ {
				g.release()
				var rows [BlockRows][]float32
				for r := range rows {
					rows[r] = guarded[float32](g, dim)
					for i := range rows[r] {
						rows[r][i] = float32(r*dim+i) - 7.5
					}
				}
				qs := make([][]float32, width)
				for j := range qs {
					qs[j] = make([]float32, dim)
					for i := range qs[j] {
						qs[j][i] = float32(i-j) * 0.25
					}
				}
				tile := NewTile(m, qs)
				for j, w := range tile.wide {
					tile.wide[j] = guarded[float64](g, dim)
					copy(tile.wide[j], w)
				}
				lanes, out := guarded[float64](g, BlockRows*dim), guarded[float64](g, BlockRows*width)
				tile.Block(&rows, lanes, out)
				for j, q := range qs {
					for r, row := range rows {
						if got, want := out[BlockRows*j+r], Distance(m, q, row); got != want {
							t.Fatalf("%v dim=%d width=%d query %d row %d: Block = %v, Distance = %v", m, dim, width, j, r, got, want)
						}
					}
				}
			}
		}
	}
}
