// AVX2 segment kernels of the attention walk and the 8-wide Exp32Rows body.
//
// The bit-compatibility rules of kernels_amd64.s hold here unchanged:
// VMULPS/VADDPS only (no FMA), products as a*b with a the first source,
// sums as acc+term, 16 dot lanes in two YMM accumulators reduced by the one
// fixed tree, tails folded in one element at a time, int8 widened with
// VPMOVSXBD+VCVTDQ2PS (vector) or a sign-extending move+VCVTSI2SS (scalar),
// all exact. What is new is the loop structure around those operations: a
// call covers a whole segment, and each row is loaded (and widened) once
// for all g heads.

#include "textflag.h"

// func scoreRowsAVX2(out *float32, ld int, maxes *float32, ng int, q *float32, dh int,
//	kf *float32, k8 *int8, kscales, widen *float32, strideBytes, rows int, scale float32)
//
// For each of rows K rows and each of g heads: s = rowscale·dot(q_h, k_j),
// out[h*ld+j] = s, maxes[h] = s if s > maxes[h]. Float rows (kf) are read
// in place and rowscale = scale; int8 rows (k8, kf nil) are widened once
// into widen[0:dh] and rowscale = scale·kscales[j].
TEXT ·scoreRowsAVX2(SB), NOSPLIT, $0-100
	MOVQ  out+0(FP), DI          // &out[0*ld+j]
	MOVQ  ld+8(FP), R8
	SHLQ  $2, R8                 // ld in bytes
	MOVQ  dh+40(FP), R11
	MOVQ  R11, R13
	ANDQ  $~15, R13
	SHLQ  $2, R13                // bytes of q covered by 16-lane blocks
	MOVQ  kf+48(FP), DX          // current row, float or int8
	MOVQ  kscales+64(FP), R10
	TESTQ DX, DX
	JNZ   sr_start
	MOVQ  k8+56(FP), DX

sr_start:
	MOVQ  strideBytes+80(FP), R12
	MOVQ  rows+88(FP), CX
	VMOVSS scale+96(FP), X15

sr_row:
	MOVQ    DX, SI               // SI: the row as float32
	VMOVAPS X15, X14             // X14: this row's scale
	CMPQ    kf+48(FP), $0
	JNE     sr_heads

	// int8 row: widen it once for every head.
	MOVQ widen+72(FP), SI
	MOVQ R11, AX
	ANDQ $~7, AX
	XORQ R9, R9

sr_widen8:
	CMPQ      R9, AX
	JGE       sr_widen1
	VPMOVSXBD (DX)(R9*1), Y2
	VCVTDQ2PS Y2, Y2
	VMOVUPS   Y2, (SI)(R9*4)
	ADDQ      $8, R9
	JMP       sr_widen8

sr_widen1:
	CMPQ       R9, R11
	JGE        sr_widened
	MOVBQSX    (DX)(R9*1), BX
	VCVTSI2SSQ BX, X2, X2
	VMOVSS     X2, (SI)(R9*4)
	INCQ       R9
	JMP        sr_widen1

sr_widened:
	VMULSS (R10), X15, X14       // scale * kscales[j]
	ADDQ   $4, R10

sr_heads:
	MOVQ q+32(FP), BX
	MOVQ maxes+16(FP), R14
	MOVQ ng+24(FP), R15
	MOVQ DI, AX

sr_head:
	VXORPS Y0, Y0, Y0            // lanes 0-7
	VXORPS Y1, Y1, Y1            // lanes 8-15
	XORQ   R9, R9
	TESTQ  R13, R13
	JZ     sr_tree

sr_block:
	VMOVUPS (BX)(R9*1), Y2
	VMOVUPS 32(BX)(R9*1), Y3
	VMULPS  (SI)(R9*1), Y2, Y2   // q * k
	VMULPS  32(SI)(R9*1), Y3, Y3
	VADDPS  Y2, Y0, Y0           // acc + product
	VADDPS  Y3, Y1, Y1
	ADDQ    $64, R9
	CMPQ    R9, R13
	JL      sr_block

sr_tree:
	VADDPS       Y1, Y0, Y0      // u[j] = lane[j] + lane[j+8]
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0      // v[j] = u[j] + u[j+4]
	VSHUFPS      $0xEE, X0, X0, X1
	VADDPS       X1, X0, X0      // w0 = v0+v2, w1 = v1+v3
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0      // r = w0 + w1
	SHRQ         $2, R9          // first tail element

sr_tail:
	CMPQ   R9, R11
	JGE    sr_scored
	VMOVSS (BX)(R9*4), X2
	VMULSS (SI)(R9*4), X2, X2
	VADDSS X2, X0, X0            // r += q[i]*k[i]
	INCQ   R9
	JMP    sr_tail

sr_scored:
	VMULSS X0, X14, X0           // rowscale * dot
	VMOVSS X0, (AX)
	VMAXSS (R14), X0, X1         // s if s > max, else max (NaN and ±0 keep max)
	VMOVSS X1, (R14)
	ADDQ   R8, AX
	LEAQ   (BX)(R11*4), BX
	ADDQ   $4, R14
	DECQ   R15
	JNZ    sr_head

	ADDQ $4, DI
	ADDQ R12, DX
	DECQ CX
	JNZ  sr_row

	VZEROUPPER
	RET

// func weighRowsAVX2(dst *float32, ng, dh int, w *float32, ld int, invSum, vf *float32, v8 *int8,
//	vscales *float32, strideBytes, rows int)
//
// First the weights: w[h*ld+j] = w[h*ld+j]·invSum[h], then ·vscales[j] when
// vscales is not nil, in place. Then columns [0, dh&^7) of dst[h*dh+i] +=
// Σ_j w[h*ld+j]·v_j[i]: rows four at a time as a0*v0 + a1*v1 + a2*v2 + a3*v3
// (left to right) added to dst, then the last rows%4 one at a time as
// dst + a*v. Each 8-column chunk of a row group is loaded — int8 (v8, vf
// nil) widened — once and applied to all ng accumulators. The Go wrapper
// runs the dh%8 tail columns.
TEXT ·weighRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ w+24(FP), R10           // &w[0*ld+j]
	MOVQ ld+32(FP), R8
	SHLQ $2, R8
	MOVQ rows+80(FP), CX
	MOVQ vscales+64(FP), DI
	MOVQ invSum+40(FP), SI
	MOVQ ng+8(FP), R9
	MOVQ R10, BX
	MOVQ CX, R12
	ANDQ $~7, R12

ww_head:
	VBROADCASTSS (SI), Y12
	XORQ         AX, AX

ww_8:
	CMPQ    AX, R12
	JGE     ww_1
	VMOVUPS (BX)(AX*4), Y2
	VMULPS  Y12, Y2, Y2          // w * invSum
	TESTQ   DI, DI
	JZ      ww_8store
	VMULPS  (DI)(AX*4), Y2, Y2   // * vscales[j]

ww_8store:
	VMOVUPS Y2, (BX)(AX*4)
	ADDQ    $8, AX
	JMP     ww_8

ww_1:
	CMPQ   AX, CX
	JGE    ww_next
	VMOVSS (BX)(AX*4), X2
	VMULSS X12, X2, X2
	TESTQ  DI, DI
	JZ     ww_1store
	VMULSS (DI)(AX*4), X2, X2

ww_1store:
	VMOVSS X2, (BX)(AX*4)
	INCQ   AX
	JMP    ww_1

ww_next:
	ADDQ R8, BX
	ADDQ $4, SI
	DECQ R9
	JNZ  ww_head

	MOVQ  dh+16(FP), R11
	MOVQ  vf+48(FP), DX          // current row group, float or int8
	TESTQ DX, DX
	JNZ   wr_group
	MOVQ  v8+56(FP), DX

wr_group:
	CMPQ CX, $4
	JL   wr_single
	MOVQ strideBytes+72(FP), AX
	MOVQ DX, SI
	LEAQ (SI)(AX*1), R13
	LEAQ (R13)(AX*1), R14
	LEAQ (R14)(AX*1), R15
	MOVQ dst+0(FP), DI
	MOVQ R11, R12                // columns left

wr_chunk4:
	CMPQ R12, $8
	JL   wr_group_done
	CMPQ vf+48(FP), $0
	JNE  wr_load4f
	VPMOVSXBD (SI), Y4
	VPMOVSXBD (R13), Y5
	VPMOVSXBD (R14), Y6
	VPMOVSXBD (R15), Y7
	VCVTDQ2PS Y4, Y4
	VCVTDQ2PS Y5, Y5
	VCVTDQ2PS Y6, Y6
	VCVTDQ2PS Y7, Y7
	ADDQ      $8, SI
	ADDQ      $8, R13
	ADDQ      $8, R14
	ADDQ      $8, R15
	JMP       wr_heads4

wr_load4f:
	VMOVUPS (SI), Y4
	VMOVUPS (R13), Y5
	VMOVUPS (R14), Y6
	VMOVUPS (R15), Y7
	ADDQ    $32, SI
	ADDQ    $32, R13
	ADDQ    $32, R14
	ADDQ    $32, R15

wr_heads4:
	MOVQ DI, AX
	MOVQ R10, BX
	MOVQ ng+8(FP), R9

wr_head4:
	VBROADCASTSS (BX), Y12
	VBROADCASTSS 4(BX), Y13
	VBROADCASTSS 8(BX), Y14
	VBROADCASTSS 12(BX), Y15
	VMULPS       Y4, Y12, Y2     // a0 * v0
	VMULPS       Y5, Y13, Y3
	VADDPS       Y3, Y2, Y2      // + a1*v1
	VMULPS       Y6, Y14, Y3
	VADDPS       Y3, Y2, Y2      // + a2*v2
	VMULPS       Y7, Y15, Y3
	VADDPS       Y3, Y2, Y2      // + a3*v3
	VMOVUPS      (AX), Y3
	VADDPS       Y2, Y3, Y3      // dst + sum
	VMOVUPS      Y3, (AX)
	LEAQ         (AX)(R11*4), AX
	ADDQ         R8, BX
	DECQ         R9
	JNZ          wr_head4

	ADDQ $32, DI
	SUBQ $8, R12
	JMP  wr_chunk4

wr_group_done:
	MOVQ strideBytes+72(FP), AX
	LEAQ (DX)(AX*4), DX
	ADDQ $16, R10
	SUBQ $4, CX
	JMP  wr_group

wr_single:
	TESTQ CX, CX
	JZ    wr_done
	MOVQ  DX, SI
	MOVQ  dst+0(FP), DI
	MOVQ  R11, R12

wr_chunk1:
	CMPQ R12, $8
	JL   wr_single_done
	CMPQ vf+48(FP), $0
	JNE  wr_load1f
	VPMOVSXBD (SI), Y4
	VCVTDQ2PS Y4, Y4
	ADDQ      $8, SI
	JMP       wr_heads1

wr_load1f:
	VMOVUPS (SI), Y4
	ADDQ    $32, SI

wr_heads1:
	MOVQ DI, AX
	MOVQ R10, BX
	MOVQ ng+8(FP), R9

wr_head1:
	VBROADCASTSS (BX), Y12
	VMULPS       Y4, Y12, Y2     // a * v
	VMOVUPS      (AX), Y3
	VADDPS       Y2, Y3, Y3      // dst + product
	VMOVUPS      Y3, (AX)
	LEAQ         (AX)(R11*4), AX
	ADDQ         R8, BX
	DECQ         R9
	JNZ          wr_head1

	ADDQ $32, DI
	SUBQ $8, R12
	JMP  wr_chunk1

wr_single_done:
	ADDQ strideBytes+72(FP), DX
	ADDQ $4, R10
	DECQ CX
	JMP  wr_single

wr_done:
	VZEROUPPER
	RET

// Exp32Rows constants: broadcast once per call.
DATA exp32c<>+0(SB)/4, $0xc2ae0000  // -87: below, n may leave [-126, 127]
DATA exp32c<>+4(SB)/4, $0x42b00000  // 88: above, likewise
DATA exp32c<>+8(SB)/4, $0x3fb8aa3b  // log2e
DATA exp32c<>+12(SB)/4, $0x3f000000 // 0.5 (also the polynomial's last coefficient)
DATA exp32c<>+16(SB)/4, $0x3f800000 // 1 (also 127<<23, the exponent bias)
DATA exp32c<>+20(SB)/4, $0x3f318000 // ln2Hi
DATA exp32c<>+24(SB)/4, $0xb95e8083 // ln2Lo
DATA exp32c<>+28(SB)/4, $0x39506967 // 1.9875691500e-4
DATA exp32c<>+32(SB)/4, $0x3ab743ce // 1.3981999507e-3
DATA exp32c<>+36(SB)/4, $0x3c088908 // 8.3334519073e-3
DATA exp32c<>+40(SB)/4, $0x3d2aa9c1 // 4.1665795894e-2
DATA exp32c<>+44(SB)/4, $0x3e2aaaaa // 1.6666665459e-1
GLOBL exp32c<>(SB), RODATA|NOPTR, $48

// func exp32RowsAVX2(xs *float32, n int) int
//
// Exp32 in place over xs[0:n], n a positive multiple of 8, eight elements
// per iteration, every step Exp32's own individually rounded operation.
// Stops in front of the first block with an element outside [-87, 88] (or
// a NaN) — where Exp32 rails or splits its scaling — and returns the number
// of elements done. floor(y+0.5), which Exp32 evaluates in float64, is
// formed as floor(y) plus one where y-floor(y) >= 0.5: the same integer for
// every y in range.
TEXT ·exp32RowsAVX2(SB), NOSPLIT, $0-24
	MOVQ         xs+0(FP), DI
	MOVQ         n+8(FP), CX
	XORQ         AX, AX
	VBROADCASTSS exp32c<>+0(SB), Y4
	VBROADCASTSS exp32c<>+4(SB), Y5
	VBROADCASTSS exp32c<>+8(SB), Y6
	VBROADCASTSS exp32c<>+12(SB), Y7
	VBROADCASTSS exp32c<>+16(SB), Y8
	VBROADCASTSS exp32c<>+20(SB), Y9
	VBROADCASTSS exp32c<>+24(SB), Y10
	VBROADCASTSS exp32c<>+28(SB), Y11
	VBROADCASTSS exp32c<>+32(SB), Y12
	VBROADCASTSS exp32c<>+36(SB), Y13
	VBROADCASTSS exp32c<>+40(SB), Y14
	VBROADCASTSS exp32c<>+44(SB), Y15

exp_loop:
	VMOVUPS    (DI)(AX*4), Y0    // x
	VCMPPS     $0x1D, Y4, Y0, Y1 // x >= -87 (ordered)
	VCMPPS     $0x12, Y5, Y0, Y2 // x <= 88 (ordered)
	VANDPS     Y2, Y1, Y1
	VMOVMSKPS  Y1, BX
	CMPL       BX, $0xFF
	JNE        exp_done
	VMULPS     Y6, Y0, Y1        // y = x * log2e
	VROUNDPS   $1, Y1, Y2        // floor(y)
	VSUBPS     Y2, Y1, Y1        // y - floor(y)
	VCMPPS     $0x1D, Y7, Y1, Y1 // >= 0.5
	VANDPS     Y8, Y1, Y1        // 1 where it rounds up
	VADDPS     Y1, Y2, Y2        // fn = floor(y + 0.5)
	VMULPS     Y9, Y2, Y1        // fn * ln2Hi
	VSUBPS     Y1, Y0, Y0        // x - fn*ln2Hi
	VMULPS     Y10, Y2, Y1       // fn * ln2Lo
	VSUBPS     Y1, Y0, Y0        // g
	VMULPS     Y0, Y11, Y1       // p = c0*g
	VADDPS     Y12, Y1, Y1
	VMULPS     Y0, Y1, Y1
	VADDPS     Y13, Y1, Y1
	VMULPS     Y0, Y1, Y1
	VADDPS     Y14, Y1, Y1
	VMULPS     Y0, Y1, Y1
	VADDPS     Y15, Y1, Y1
	VMULPS     Y0, Y1, Y1
	VADDPS     Y7, Y1, Y1        // ... + 0.5
	VMULPS     Y0, Y0, Y3        // g*g
	VMULPS     Y1, Y3, Y3        // g*g*p
	VADDPS     Y0, Y8, Y1        // 1 + g
	VADDPS     Y3, Y1, Y1        // e^g = 1 + g + g*g*p
	VCVTTPS2DQ Y2, Y2            // n
	VPSLLD     $23, Y2, Y2
	VPADDD     Y8, Y2, Y2        // (n+127)<<23: 2^n
	VMULPS     Y2, Y1, Y1        // e^g * 2^n
	VMOVUPS    Y1, (DI)(AX*4)
	ADDQ       $8, AX
	CMPQ       AX, CX
	JL         exp_loop

exp_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
