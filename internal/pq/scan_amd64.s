#include "textflag.h"

// The AVX2 ADC kernel (scan_amd64.go). Each 32-bit lane of a YMM
// register is one row's float32 sum: column 0's table entry, then each
// later column's added in ascending order by a separate VADDPS with the
// sum as the first operand. No fused operation and no reordering, so
// every lane is the Go loop's bits, NaN payloads included, and pq.ADC's
// but for which payload a NaN + NaN keeps.
//
// A gather writes only the lanes its mask selects and clears the mask
// as it goes, so every gather takes a fresh all-ones copy of Y15.
// (Clearing its destination first, to cut the merge's dependence on the
// last gather there, measured 1.6x slower.)
// Every loop starts on a 64-byte boundary (PCALIGN), as the block
// kernel's do: kernel placement alone moved the float scan 8-14 %.

// One column of one group of eight rows: widen the group's eight code
// bytes at off(SI) to indices, gather their entries of the table at R9.
#define GATHER(off, idx, mask, dst) \
	VPMOVZXBD    off(SI), idx; \
	VMOVDQU      Y15, mask; \
	VGATHERDPS   mask, (R9)(idx*4), dst

// func adc8(lut *float32, col *byte, stride, m, n int, acc *float32)
// acc[r] = lut[col[r]] + lut[Ks+col[stride+r]] + ... + lut[(m-1)*Ks +
// col[(m-1)*stride+r]] for r in [0, n), m >= 1, n a positive multiple
// of 8. Two groups of eight rows are in flight while sixteen remain.
TEXT ·adc8(SB), NOSPLIT, $0-48
	MOVQ     lut+0(FP), R8
	MOVQ     col+8(FP), DI
	MOVQ     stride+16(FP), DX
	MOVQ     m+24(FP), CX
	MOVQ     n+32(FP), BX
	MOVQ     acc+40(FP), R10
	VPCMPEQD Y15, Y15, Y15
	CMPQ     BX, $16
	JLT      one

	PCALIGN $64
two:
	MOVQ   DI, SI
	MOVQ   R8, R9
	MOVQ   CX, R11
	GATHER(0, Y2, Y12, Y0)
	GATHER(8, Y3, Y13, Y1)
	DECQ   R11
	JZ     store2
	PCALIGN $64
cols2:
	ADDQ   DX, SI
	ADDQ   $1024, R9
	GATHER(0, Y2, Y12, Y4)
	GATHER(8, Y3, Y13, Y5)
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	DECQ   R11
	JNZ    cols2
store2:
	VMOVUPS Y0, (R10)
	VMOVUPS Y1, 32(R10)
	ADDQ    $16, DI
	ADDQ    $64, R10
	SUBQ    $16, BX
	CMPQ    BX, $16
	JGE     two
	TESTQ   BX, BX
	JZ      done

one:
	MOVQ   DI, SI
	MOVQ   R8, R9
	MOVQ   CX, R11
	GATHER(0, Y2, Y12, Y0)
	DECQ   R11
	JZ     store1
	PCALIGN $64
cols1:
	ADDQ   DX, SI
	ADDQ   $1024, R9
	GATHER(0, Y2, Y12, Y4)
	VADDPS Y4, Y0, Y0
	DECQ   R11
	JNZ    cols1
store1:
	VMOVUPS Y0, (R10)

done:
	VZEROUPPER
	RET
