// AVX2 segment kernels of the attention walk and the 8-wide Exp32Rows body.
//
// The bit-compatibility rules of kernels_amd64.s hold here unchanged:
// VMULPS/VADDPS only (no FMA), products as a*b with a the first source,
// sums as acc+term, 16 dot lanes reduced by the one fixed tree, tails
// folded in one element at a time, int8 widened with VPMOVSXBD+VCVTDQ2PS
// (vector) or a sign-extending move+VCVTSI2SS (scalar), all exact. What is new is the loop structure around those
// operations: a call covers a whole segment, each row is loaded (and
// widened) once for all the heads it serves, and scores and weights sit in
// a row-major [rows][g] scratch, so a row's heads are contiguous.
//
// Two score kernels share that contract. scoreRowsAVX2 takes one head at a
// time: 16 lanes in two YMM accumulators and a horizontal tree per score.
// scoreLanesAVX2, for g a multiple of 8, puts eight heads in the eight
// lanes of a YMM register instead: each of the 16 dot lanes is one vector
// over heads (VBROADCASTSS k, VMULPS, VADDPS), and the tree and the tail
// run lane-wise, so every head's score is formed by the same operations in
// the same order as its one-head dot.

#include "textflag.h"

// func scoreRowsAVX2(out, maxes *float32, ng int, q *float32, dh int,
//	kf *float32, k8 *int8, kscales, widen *float32, strideBytes, rows int, scale float32)
//
// For each of rows K rows and each of g heads: s = rowscale·dot(q_h, k_j),
// out[j*g+h] = s, maxes[h] = s if s > maxes[h]. Float rows (kf) are read
// in place and rowscale = scale; int8 rows (k8, kf nil) are widened once
// into widen[0:dh] and rowscale = scale·kscales[j]. One head at a time:
// each score is one 16-lane dot and one horizontal tree.
TEXT ·scoreRowsAVX2(SB), NOSPLIT, $0-92
	PCALIGN $64
	MOVQ  out+0(FP), DI          // &out[j*g+h], one float per head
	MOVQ  dh+32(FP), R11
	MOVQ  R11, R13
	ANDQ  $~15, R13
	SHLQ  $2, R13                // bytes of q covered by 16-lane blocks
	MOVQ  kf+40(FP), DX          // current row, float or int8
	MOVQ  kscales+56(FP), R10
	TESTQ DX, DX
	JNZ   sr_start
	MOVQ  k8+48(FP), DX

sr_start:
	MOVQ   strideBytes+72(FP), R12
	MOVQ   rows+80(FP), CX
	VMOVSS scale+88(FP), X15

sr_row:
	MOVQ    DX, SI               // SI: the row as float32
	VMOVAPS X15, X14             // X14: this row's scale
	CMPQ    kf+40(FP), $0
	JNE     sr_heads

	// int8 row: widen it once for every head.
	MOVQ widen+64(FP), SI
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
	MOVQ q+24(FP), BX
	MOVQ maxes+8(FP), R14
	MOVQ ng+16(FP), R15

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
	VMOVSS X0, (DI)
	VMAXSS (R14), X0, X1         // s if s > max, else max (NaN and ±0 keep max)
	VMOVSS X1, (R14)
	ADDQ   $4, DI
	LEAQ   (BX)(R11*4), BX
	ADDQ   $4, R14
	DECQ   R15
	JNZ    sr_head

	ADDQ R12, DX
	DECQ CX
	JNZ  sr_row

	VZEROUPPER
	RET

// func scoreLanesAVX2(out, maxes *float32, ng int, qt *float32, dh int,
//	kf *float32, k8 *int8, kscales, widen *float32, strideBytes, rows int, scale float32)
//
// scoreRowsAVX2 for ng a multiple of 8, eight heads to a vector. qt holds
// the queries heads in lanes: for each group of eight heads, [dh][8]. Each
// of the dot product's 16 lanes is a vector over the group's heads,
// L[l] += qt[16b+l]·k[16b+l] over blocks b (the query vector loaded, the K
// element broadcast), and the fixed tree and the
// sequential tail run lane-wise, so each head's score takes exactly the
// operations of its one-head dot. A group's eight scores of a row are one
// store and one VMAXPS, and its running maxes stay in Y15 for the whole
// segment; the groups take turns over the segment.
//
// Lanes are accumulated in two passes so that they fit the registers:
// {0-3, 8-11}, which leave u0..u3 = L[j]+L[j+8], then {4-7, 12-15}.
TEXT ·scoreLanesAVX2(SB), NOSPLIT, $0-92
	PCALIGN $64
	MOVQ out+0(FP), R8           // the group's column of out
	MOVQ maxes+8(FP), R14        // the group's maxes
	MOVQ qt+24(FP), R15          // the group's [dh][8] queries
	MOVQ ng+16(FP), R12
	SHLQ $2, R12                 // bytes per row of out
	MOVQ dh+32(FP), R11
	MOVQ R11, R13
	ANDQ $~15, R13               // elements covered by 16-lane blocks

sl_group:
	VMOVUPS      (R14), Y15      // the group's running maxes
	VBROADCASTSS scale+88(FP), Y14
	MOVQ         kscales+56(FP), R10
	MOVQ         rows+80(FP), CX
	MOVQ         R8, DI
	MOVQ         kf+40(FP), DX   // current row, float or int8
	TESTQ        DX, DX
	JNZ          sl_row
	MOVQ         k8+48(FP), DX

sl_row:
	MOVQ DX, SI                  // SI: the row as float32
	CMPQ kf+40(FP), $0
	JNE  sl_lanes

	// int8 row: widen it once for the group.
	MOVQ widen+64(FP), SI
	MOVQ R11, AX
	ANDQ $~7, AX
	XORQ R9, R9

sl_widen8:
	CMPQ      R9, AX
	JGE       sl_widen1
	VPMOVSXBD (DX)(R9*1), Y2
	VCVTDQ2PS Y2, Y2
	VMOVUPS   Y2, (SI)(R9*4)
	ADDQ      $8, R9
	JMP       sl_widen8

sl_widen1:
	CMPQ       R9, R11
	JGE        sl_widened
	MOVBQSX    (DX)(R9*1), BX
	VCVTSI2SSQ BX, X2, X2
	VMOVSS     X2, (SI)(R9*4)
	INCQ       R9
	JMP        sl_widen1

sl_widened:
	VMOVSS       scale+88(FP), X14
	VMULSS       (R10), X14, X14 // scale * kscales[j]
	VBROADCASTSS X14, Y14
	ADDQ         $4, R10

sl_lanes:
	MOVQ  R15, AX                // qt[i] for the block's first element i
	XORQ  R9, R9                 // i
	TESTQ R13, R13
	JNZ   sl_passA
	VXORPS Y0, Y0, Y0            // no block: the tree of zero lanes is +0
	JMP   sl_tail

sl_passA:
	VXORPS Y0, Y0, Y0            // L0
	VXORPS Y1, Y1, Y1            // L1
	VXORPS Y2, Y2, Y2            // L2
	VXORPS Y3, Y3, Y3            // L3
	VXORPS Y4, Y4, Y4            // L8
	VXORPS Y5, Y5, Y5            // L9
	VXORPS Y6, Y6, Y6            // L10
	VXORPS Y7, Y7, Y7            // L11

sl_blockA:
	VMOVUPS      0(AX), Y8
	VBROADCASTSS 0(SI)(R9*4), Y9
	VMULPS       Y9, Y8, Y8      // q * k, for eight heads
	VADDPS       Y8, Y0, Y0      // lane + product
	VMOVUPS      32(AX), Y10
	VBROADCASTSS 4(SI)(R9*4), Y11
	VMULPS       Y11, Y10, Y10
	VADDPS       Y10, Y1, Y1
	VMOVUPS      64(AX), Y12
	VBROADCASTSS 8(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y2, Y2
	VMOVUPS      96(AX), Y8
	VBROADCASTSS 12(SI)(R9*4), Y9
	VMULPS       Y9, Y8, Y8
	VADDPS       Y8, Y3, Y3
	VMOVUPS      256(AX), Y10
	VBROADCASTSS 32(SI)(R9*4), Y11
	VMULPS       Y11, Y10, Y10
	VADDPS       Y10, Y4, Y4
	VMOVUPS      288(AX), Y12
	VBROADCASTSS 36(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y5, Y5
	VMOVUPS      320(AX), Y8
	VBROADCASTSS 40(SI)(R9*4), Y9
	VMULPS       Y9, Y8, Y8
	VADDPS       Y8, Y6, Y6
	VMOVUPS      352(AX), Y10
	VBROADCASTSS 44(SI)(R9*4), Y11
	VMULPS       Y11, Y10, Y10
	VADDPS       Y10, Y7, Y7
	ADDQ         $16, R9
	ADDQ         $512, AX
	CMPQ         R9, R13
	JL           sl_blockA

	VADDPS Y4, Y0, Y0            // u0 = L0 + L8
	VADDPS Y5, Y1, Y1            // u1
	VADDPS Y6, Y2, Y2            // u2
	VADDPS Y7, Y3, Y3            // u3
	MOVQ   R15, AX
	XORQ   R9, R9
	VXORPS Y4, Y4, Y4            // L4
	VXORPS Y5, Y5, Y5            // L5
	VXORPS Y6, Y6, Y6            // L6
	VXORPS Y7, Y7, Y7            // L7
	VXORPS Y8, Y8, Y8            // L12
	VXORPS Y9, Y9, Y9            // L13
	VXORPS Y10, Y10, Y10         // L14
	VXORPS Y11, Y11, Y11         // L15

sl_blockB:
	VMOVUPS      128(AX), Y12
	VBROADCASTSS 16(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12   // q * k, for eight heads
	VADDPS       Y12, Y4, Y4     // lane + product
	VMOVUPS      160(AX), Y12
	VBROADCASTSS 20(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y5, Y5
	VMOVUPS      192(AX), Y12
	VBROADCASTSS 24(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y6, Y6
	VMOVUPS      224(AX), Y12
	VBROADCASTSS 28(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y7, Y7
	VMOVUPS      384(AX), Y12
	VBROADCASTSS 48(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y8, Y8
	VMOVUPS      416(AX), Y12
	VBROADCASTSS 52(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y9, Y9
	VMOVUPS      448(AX), Y12
	VBROADCASTSS 56(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y10, Y10
	VMOVUPS      480(AX), Y12
	VBROADCASTSS 60(SI)(R9*4), Y13
	VMULPS       Y13, Y12, Y12
	VADDPS       Y12, Y11, Y11
	ADDQ         $16, R9
	ADDQ         $512, AX
	CMPQ         R9, R13
	JL           sl_blockB

	VADDPS Y8, Y4, Y4            // u4 = L4 + L12
	VADDPS Y9, Y5, Y5            // u5
	VADDPS Y10, Y6, Y6           // u6
	VADDPS Y11, Y7, Y7           // u7
	VADDPS Y4, Y0, Y0            // v0 = u0 + u4
	VADDPS Y5, Y1, Y1            // v1
	VADDPS Y6, Y2, Y2            // v2
	VADDPS Y7, Y3, Y3            // v3
	VADDPS Y2, Y0, Y0            // w0 = v0 + v2
	VADDPS Y3, Y1, Y1            // w1 = v1 + v3
	VADDPS Y1, Y0, Y0            // r = w0 + w1

sl_tail:
	CMPQ         R9, R11
	JGE          sl_scored
	VMOVUPS      (AX), Y8
	VBROADCASTSS (SI)(R9*4), Y9
	VMULPS       Y9, Y8, Y8
	VADDPS       Y8, Y0, Y0      // r += q[i]*k[i]
	INCQ         R9
	ADDQ         $32, AX
	JMP          sl_tail

sl_scored:
	VMULPS  Y0, Y14, Y0          // rowscale * dot
	VMOVUPS Y0, (DI)
	VMAXPS  Y15, Y0, Y15         // s if s > max, else max (NaN and ±0 keep max)
	ADDQ    R12, DI
	ADDQ    strideBytes+72(FP), DX
	DECQ    CX
	JNZ     sl_row

	VMOVUPS Y15, (R14)
	ADDQ    $32, R8
	ADDQ    $32, R14
	MOVQ    R11, AX
	SHLQ    $5, AX
	ADDQ    AX, R15              // next group's queries: dh·8 floats on
	MOVQ    maxes+8(FP), AX
	ADDQ    R12, AX
	CMPQ    R14, AX
	JL      sl_group

	VZEROUPPER
	RET

// func weighRowsAVX2(dst *float32, ng, dh int, w, invSum, vf *float32, v8 *int8,
//	vscales *float32, strideBytes, rows int)
//
// First the weights of the [rows][ng] scratch at w: w[j*ng+h] =
// w[j*ng+h]·invSum[h], then ·vscales[j] when vscales is not nil, in place —
// one head eight rows to a vector, a multiple of 8 heads a row's heads
// eight to a vector, any other head count one weight at a time. Then
// columns [0, dh&^7) of dst[h*dh+i] += Σ_j w[j*ng+h]·v_j[i]: rows four at a
// time as a0*v0 + a1*v1 + a2*v2 + a3*v3 (left to right) added to dst, then
// the last rows%4 one at a time as dst + a*v. Each 8-column chunk of a row
// group is loaded — int8 (v8, vf nil) widened — once and applied to all ng
// accumulators. The Go wrapper runs the dh%8 tail columns.
TEXT ·weighRowsAVX2(SB), NOSPLIT, $0-80
	PCALIGN $64
	MOVQ w+24(FP), R10           // &w[j*ng]
	MOVQ ng+8(FP), R8
	SHLQ $2, R8                  // bytes per row of w
	MOVQ rows+72(FP), CX
	MOVQ vscales+56(FP), DI
	MOVQ invSum+32(FP), SI
	MOVQ R10, BX
	CMPQ R8, $4
	JNE  ww_rows

	// One head: its weights are contiguous, eight rows to a vector.
	VBROADCASTSS (SI), Y12
	MOVQ         CX, R12
	ANDQ         $~7, R12
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
	JGE    ww_done
	VMOVSS (BX)(AX*4), X2
	VMULSS X12, X2, X2
	TESTQ  DI, DI
	JZ     ww_1store
	VMULSS (DI)(AX*4), X2, X2

ww_1store:
	VMOVSS X2, (BX)(AX*4)
	INCQ   AX
	JMP    ww_1

	// A multiple of 8 heads: a row's heads eight to a vector.
ww_rows:
	MOVQ R8, R12
	ANDQ $31, R12
	JNZ  ww_heads1
	MOVQ CX, R9

ww_row8:
	TESTQ        DI, DI
	JZ           ww_row8h
	VBROADCASTSS (DI), Y13       // vscales[j]
	ADDQ         $4, DI

ww_row8h:
	XORQ AX, AX

ww_h8:
	VMOVUPS (BX)(AX*1), Y2
	VMULPS  (SI)(AX*1), Y2, Y2   // w * invSum[h]
	TESTQ   DI, DI
	JZ      ww_h8store
	VMULPS  Y13, Y2, Y2          // * vscales[j]

ww_h8store:
	VMOVUPS Y2, (BX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R8
	JL      ww_h8
	ADDQ    R8, BX
	DECQ    R9
	JNZ     ww_row8
	JMP     ww_done

	// Any other head count: one weight at a time.
ww_heads1:
	MOVQ CX, R9

ww_row1:
	XORQ AX, AX

ww_h1:
	VMOVSS (BX)(AX*1), X2
	VMULSS (SI)(AX*1), X2, X2    // w * invSum[h]
	TESTQ  DI, DI
	JZ     ww_h1store
	VMULSS (DI), X2, X2          // * vscales[j]

ww_h1store:
	VMOVSS X2, (BX)(AX*1)
	ADDQ   $4, AX
	CMPQ   AX, R8
	JL     ww_h1
	ADDQ   R8, BX
	TESTQ  DI, DI
	JZ     ww_row1next
	ADDQ   $4, DI

ww_row1next:
	DECQ R9
	JNZ  ww_row1

ww_done:
	MOVQ  dh+16(FP), R11
	MOVQ  strideBytes+64(FP), R13
	LEAQ  (R13)(R13*2), R14      // three rows of V
	LEAQ  (R8)(R8*2), R15        // three rows of w
	MOVQ  vf+40(FP), DX          // current row group, float or int8
	TESTQ DX, DX
	JNZ   wr_group
	MOVQ  v8+48(FP), DX

wr_group:
	CMPQ CX, $4
	JL   wr_single
	MOVQ DX, SI
	MOVQ dst+0(FP), DI
	MOVQ R11, R12                // columns left

wr_chunk4:
	CMPQ R12, $8
	JL   wr_group_done
	CMPQ vf+40(FP), $0
	JNE  wr_load4f
	VPMOVSXBD (SI), Y4
	VPMOVSXBD (SI)(R13*1), Y5
	VPMOVSXBD (SI)(R13*2), Y6
	VPMOVSXBD (SI)(R14*1), Y7
	VCVTDQ2PS Y4, Y4
	VCVTDQ2PS Y5, Y5
	VCVTDQ2PS Y6, Y6
	VCVTDQ2PS Y7, Y7
	ADDQ      $8, SI
	JMP       wr_heads4

wr_load4f:
	VMOVUPS (SI), Y4
	VMOVUPS (SI)(R13*1), Y5
	VMOVUPS (SI)(R13*2), Y6
	VMOVUPS (SI)(R14*1), Y7
	ADDQ    $32, SI

wr_heads4:
	MOVQ DI, AX
	MOVQ R10, BX
	MOVQ ng+8(FP), R9

wr_head4:
	VBROADCASTSS (BX), Y12
	VBROADCASTSS (BX)(R8*1), Y13
	VBROADCASTSS (BX)(R8*2), Y14
	VBROADCASTSS (BX)(R15*1), Y15
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
	ADDQ         $4, BX
	DECQ         R9
	JNZ          wr_head4

	ADDQ $32, DI
	SUBQ $8, R12
	JMP  wr_chunk4

wr_group_done:
	LEAQ (DX)(R13*4), DX
	LEAQ (R10)(R8*4), R10
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
	CMPQ vf+40(FP), $0
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
	ADDQ         $4, BX
	DECQ         R9
	JNZ          wr_head1

	ADDQ $32, DI
	SUBQ $8, R12
	JMP  wr_chunk1

wr_single_done:
	ADDQ R13, DX
	ADDQ R8, R10
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
	PCALIGN $64
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
