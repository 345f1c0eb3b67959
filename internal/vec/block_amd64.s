#include "textflag.h"

// The AVX2 block kernel (block_amd64.go). A YMM register holds one
// element index of four rows, so each of its float64 lanes is the
// accumulator of one (query, row) pair, advanced over i = 0..dim-1 by a
// separate subtract, multiply and add: the operations, and the order,
// of the pure-Go kernel in tile.go. No fused multiply-add anywhere; it
// rounds once where Go rounds twice.
//
// Every hot loop starts on a 64-byte boundary (PCALIGN, which also
// aligns its function). Left to where the linker happened to put the
// kernel, 64- or only 32-byte aligned, the same loops ran a linear scan
// 8-14 % apart between builds that changed no kernel code.

// func hasAVX2() bool
// CPUID.1:ECX says the OS saves extended state (OSXSAVE, bit 27) and
// the CPU has AVX (bit 28); XCR0 bits 1-2 say the saved state includes
// the YMM registers; CPUID.7.0:EBX bit 5 is AVX2. OSXSAVE implies leaf
// 0xD exists, so leaf 7 does.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET

// func prefetch(p *float32, n int)
// PREFETCHT0 on each 64-byte line that holds one of the n > 0 bytes at p.
TEXT ·prefetch(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	ADDQ AX, CX
	ANDQ $~63, AX
	PCALIGN $64
line:
	PREFETCHT0 (AX)
	ADDQ       $64, AX
	CMPQ       AX, CX
	JLT        line
	RET

// func widen8(r0, r1, r2, r3 *float32, n int, lanes *float64, ahead int)
// Transposes and widens elements [0, n) of four rows, n a positive
// multiple of 8: lanes[4*i+r] = float64(r_r[i]). Eight elements of each
// row are transposed as float32 within the 128-bit halves of the
// registers, which leaves element i beside element i+4; the halves go
// through the frame so that each conversion (exact) reads its four
// floats from memory, which costs no shuffle. Each load is paired with
// a prefetch ahead bytes further on: where the next block's rows are
// when the rows come from a slab, and only a hint, never a read, when
// they do not.
TEXT ·widen8(SB), NOSPLIT, $128-56
	MOVQ r0+0(FP), R8
	MOVQ r1+8(FP), R9
	MOVQ r2+16(FP), R10
	MOVQ r3+24(FP), R11
	MOVQ n+32(FP), CX
	MOVQ lanes+40(FP), DI
	MOVQ ahead+48(FP), DX
	XORQ BX, BX
	PCALIGN $64
widen:
	PREFETCHT0 (R8)(DX*1)
	PREFETCHT0 (R9)(DX*1)
	PREFETCHT0 (R10)(DX*1)
	PREFETCHT0 (R11)(DX*1)
	ADDQ       $32, DX
	VMOVUPS   (R8)(BX*4), Y0  // a0 a1 a2 a3 | a4 a5 a6 a7
	VMOVUPS   (R9)(BX*4), Y1  // b
	VMOVUPS   (R10)(BX*4), Y2 // c
	VMOVUPS   (R11)(BX*4), Y3 // d
	VUNPCKLPS Y1, Y0, Y4      // a0 b0 a1 b1 | a4 b4 a5 b5
	VUNPCKHPS Y1, Y0, Y5      // a2 b2 a3 b3 | a6 b6 a7 b7
	VUNPCKLPS Y3, Y2, Y6      // c0 d0 c1 d1 | c4 d4 c5 d5
	VUNPCKHPS Y3, Y2, Y7      // c2 d2 c3 d3 | c6 d6 c7 d7
	VUNPCKLPD Y6, Y4, Y0      // a0 b0 c0 d0 | a4 b4 c4 d4
	VUNPCKHPD Y6, Y4, Y1      // a1 b1 c1 d1 | a5 b5 c5 d5
	VUNPCKLPD Y7, Y5, Y2      // a2 b2 c2 d2 | a6 b6 c6 d6
	VUNPCKHPD Y7, Y5, Y3      // a3 b3 c3 d3 | a7 b7 c7 d7
	VMOVUPS   Y0, t0-128(SP)
	VMOVUPS   Y1, t1-96(SP)
	VMOVUPS   Y2, t2-64(SP)
	VMOVUPS   Y3, t3-32(SP)
	VCVTPS2PD t0-128(SP), Y0
	VCVTPS2PD t1-96(SP), Y1
	VCVTPS2PD t2-64(SP), Y2
	VCVTPS2PD t3-32(SP), Y3
	VCVTPS2PD t4-112(SP), Y4
	VCVTPS2PD t5-80(SP), Y5
	VCVTPS2PD t6-48(SP), Y6
	VCVTPS2PD t7-16(SP), Y7
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VMOVUPD   Y2, 64(DI)
	VMOVUPD   Y3, 96(DI)
	VMOVUPD   Y4, 128(DI)
	VMOVUPD   Y5, 160(DI)
	VMOVUPD   Y6, 192(DI)
	VMOVUPD   Y7, 224(DI)
	ADDQ      $256, DI
	ADDQ      $8, BX
	CMPQ      BX, CX
	JLT       widen
	VZEROUPPER
	RET

// One element of the scan for the query broadcast in q: the element's
// term lands in q, then joins the pair's accumulator. Y4 holds the four
// rows' element, Y12 the mask that clears a sign bit.
#define L2(q, acc) \
	VSUBPD Y4, q, q; \
	VMULPD q, q, q; \
	VADDPD q, acc, acc

#define L1(q, acc) \
	VSUBPD Y4, q, q; \
	VANDPD Y12, q, q; \
	VADDPD q, acc, acc

#define DOT(q, acc) \
	VMULPD Y4, q, q; \
	VADDPD q, acc, acc

// Each row's own square: the broadcast in q is not read.
#define SQUARE(q, acc) \
	VMULPD Y4, Y4, q; \
	VADDPD q, acc, acc

// The loop of q4 for one metric: SI walks the lanes, BX is i.
#define LOOP4(name, STEP) \
	PCALIGN $64; \
name: \
	VMOVUPD      (SI), Y4; \
	VBROADCASTSD (R8)(BX*8), Y5; \
	VBROADCASTSD (R9)(BX*8), Y6; \
	VBROADCASTSD (R10)(BX*8), Y7; \
	VBROADCASTSD (R11)(BX*8), Y8; \
	STEP(Y5, Y0); \
	STEP(Y6, Y1); \
	STEP(Y7, Y2); \
	STEP(Y8, Y3); \
	ADDQ         $32, SI; \
	INCQ         BX; \
	CMPQ         BX, CX; \
	JLT          name; \
	JMP          done4

// func q4(op int, lanes, q0, q1, q2, q3 *float64, dim int, out *float64)
// Scores four widened queries against the block in lanes, dim >= 1:
// out[4*j+r] is query j's accumulator for row r. op is the Metric:
// Euclidean, Manhattan, or Cosine's dot product.
TEXT ·q4(SB), NOSPLIT, $0-64
	MOVQ     op+0(FP), AX
	MOVQ     lanes+8(FP), SI
	MOVQ     q0+16(FP), R8
	MOVQ     q1+24(FP), R9
	MOVQ     q2+32(FP), R10
	MOVQ     q3+40(FP), R11
	MOVQ     dim+48(FP), CX
	MOVQ     out+56(FP), DI
	VXORPD   Y0, Y0, Y0
	VXORPD   Y1, Y1, Y1
	VXORPD   Y2, Y2, Y2
	VXORPD   Y3, Y3, Y3
	VPCMPEQD Y12, Y12, Y12
	VPSRLQ   $1, Y12, Y12
	XORQ     BX, BX
	CMPQ     AX, $1
	JEQ      l1x4
	JA       dotx4
	LOOP4(l2x4, L2)
	LOOP4(l1x4, L1)
	LOOP4(dotx4, DOT)
done4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

#define LOOP1(name, STEP) \
	PCALIGN $64; \
name: \
	VMOVUPD      (SI), Y4; \
	VBROADCASTSD (R8)(BX*8), Y5; \
	STEP(Y5, Y0); \
	ADDQ         $32, SI; \
	INCQ         BX; \
	CMPQ         BX, CX; \
	JLT          name; \
	JMP          done1

// func q1(op int, lanes, q *float64, dim int, out *float64)
// q4 for one query: out[r] is its accumulator for row r. op 3 sums each
// row's squares, Cosine's row norms; it reads q (any dim float64s) and
// ignores what it read.
TEXT ·q1(SB), NOSPLIT, $0-40
	MOVQ     op+0(FP), AX
	MOVQ     lanes+8(FP), SI
	MOVQ     q+16(FP), R8
	MOVQ     dim+24(FP), CX
	MOVQ     out+32(FP), DI
	VXORPD   Y0, Y0, Y0
	VPCMPEQD Y12, Y12, Y12
	VPSRLQ   $1, Y12, Y12
	XORQ     BX, BX
	CMPQ     AX, $1
	JEQ      l1x1
	JB       l2x1
	CMPQ     AX, $2
	JEQ      dotx1
	LOOP1(sqx1, SQUARE)
	LOOP1(l2x1, L2)
	LOOP1(l1x1, L1)
	LOOP1(dotx1, DOT)
done1:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET
