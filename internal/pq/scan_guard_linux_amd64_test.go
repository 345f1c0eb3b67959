package pq

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n >= 1 elements of T ending flush against a PROT_NONE
// page, so that a read one element past them faults instead of passing
// unnoticed, and a func that unmaps them.
func guarded[T byte | float32](t *testing.T, n int) ([]T, func()) {
	t.Helper()
	var zero T
	page := syscall.Getpagesize()
	bytes := n * int(unsafe.Sizeof(zero))
	body := (bytes + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[body:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[body-bytes])), n), func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Fatalf("munmap: %v", err)
		}
	}
}

// TestScanStaysInBounds runs the assembly ADC kernel with the packed
// codes and the lookup table each ending flush against an unmapped
// page, at every M = 1…16 and at row counts that end the last block on
// a whole group, a group and a tail, and a tail alone, from every start
// the groups split on: the kernel reads no code byte past a block's last
// row and no table entry past the last. Every row's last code is 255
// somewhere, so the table's final entry is read. (A fault kills the test
// binary; that is the failure report.) The answers are checked against
// ADC too, so the run is not vacuous.
func TestScanStaysInBounds(t *testing.T) {
	if scanAVX2 == nil {
		t.Skip("no AVX2 kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(1))
	for m := 1; m <= 16; m++ {
		for _, n := range []int{8, 16, 23, 24, 263, 264, 512} {
			raw := make([]byte, n*m)
			rng.Read(raw)
			raw[len(raw)-1] = 255
			buf, freeBuf := guarded[byte](t, n*m)
			copy(buf, Pack(raw, m).buf)
			c := &Codes{m: m, n: n, buf: buf}
			lut, freeLUT := guarded[float32](t, m*Ks)
			for i := range lut {
				lut[i] = rng.Float32()
			}
			for _, lo := range []int{0, 1, 7, 8, n - 8, n - 1} {
				c.Scan(lut, lo, n, func(base int, dists []float32) {
					for i, d := range dists {
						row := base + i
						if want := ADC(lut, raw[row*m:(row+1)*m]); d != want {
							t.Fatalf("M=%d n=%d from %d row %d: scan %v, ADC %v", m, n, lo, row, d, want)
						}
					}
				})
			}
			freeBuf()
			freeLUT()
		}
	}
}
