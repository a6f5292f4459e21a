// AVX2 GEMM tile and row quantizer.
//
// The bit-compatibility rules of kernels_amd64.s hold here unchanged:
// VMULPS/VADDPS only (no FMA), products as a*b with a the first source,
// sums as acc+term, int8 widened with VPMOVSXBD+VCVTDQ2PS. What the tile
// changes is where the running sums live: in registers for the whole
// contraction, instead of in the output row between calls.

#include "textflag.h"

// FOLD folds one k-group into one output row's accumulator ACC: the row's
// four activations are at A0..A3, the group's four weight rows in Y8..Y11.
//
//	t = ((a0*b0 + a1*b1) + a2*b2) + a3*b3;  ACC = ACC + t
//
// which is MulAdd4F32's association with the output element held in ACC.
#define FOLD(A0, A1, A2, A3, ACC) \
	VBROADCASTSS A0, Y12;       \
	VMULPS       Y8, Y12, Y12;  \
	VBROADCASTSS A1, Y13;       \
	VMULPS       Y9, Y13, Y13;  \
	VADDPS       Y13, Y12, Y12; \
	VBROADCASTSS A2, Y13;       \
	VMULPS       Y10, Y13, Y13; \
	VADDPS       Y13, Y12, Y12; \
	VBROADCASTSS A3, Y13;       \
	VMULPS       Y11, Y13, Y13; \
	VADDPS       Y13, Y12, Y12; \
	VADDPS       Y12, ACC, ACC

// ROW is FOLD for the tile row at byte offset IDX (an index expression)
// from row 0, whose current activations are at (SI).
#define ROW(IDX, ACC) FOLD(0(SI)IDX, 4(SI)IDX, 8(SI)IDX, 12(SI)IDX, ACC)

// func gemmTileAVX2(dst *float32, lddBytes int, a *float32, ldaBytes int, bf *float32, b8 *int8,
//	rowStrideBytes, stripStrideBytes, rows, kGroups, strips int, acc bool)
//
// One row tile of dst (+)= a·b: rows ∈ {1, 2, 4, 8} output rows by strips
// strips of eight columns, contracted over kGroups groups of four steps.
// Per strip the rows' accumulators sit in Y0..Y7 — cleared, or dst's
// values when acc — for every k-group: the group's four weight rows are
// loaded into Y8..Y11 once (float32 at bf, or int8 at b8, bf nil, widened
// once) and every row folds them in with ROW, its activations broadcast
// from memory; then the accumulators are stored. Weight element (kk, j) of
// strip s is at s·stripStrideBytes + kk·rowStrideBytes + j elements, so
// row-major storage, a row block, a column range and a strip-packed panel
// are all this one loop. The Go wrapper runs the n%8 columns and the k%4
// steps.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-89
	PCALIGN $64
	MOVQ  dst+0(FP), DI          // row 0 of the current strip
	MOVQ  lddBytes+8(FP), R14
	MOVQ  ldaBytes+24(FP), R8
	LEAQ  (R8)(R8*2), R9         // 3·lda
	LEAQ  (R8)(R8*4), R10        // 5·lda
	LEAQ  (R9)(R8*4), R11        // 7·lda
	MOVQ  rowStrideBytes+48(FP), R12
	LEAQ  (R12)(R12*2), R13      // 3·rowStride
	MOVQ  strips+80(FP), BX
	MOVQ  bf+32(FP), R15         // the current strip's first weight row
	TESTQ R15, R15
	JNZ   gt_strip
	MOVQ  b8+40(FP), R15

gt_strip:
	CMPB acc+88(FP), $0
	JNE  gt_load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP  gt_contract

gt_load:
	MOVQ    DI, AX
	VMOVUPS (AX), Y0
	CMPQ    rows+64(FP), $1
	JE      gt_contract
	ADDQ    R14, AX
	VMOVUPS (AX), Y1
	CMPQ    rows+64(FP), $2
	JE      gt_contract
	ADDQ    R14, AX
	VMOVUPS (AX), Y2
	ADDQ    R14, AX
	VMOVUPS (AX), Y3
	CMPQ    rows+64(FP), $4
	JE      gt_contract
	ADDQ    R14, AX
	VMOVUPS (AX), Y4
	ADDQ    R14, AX
	VMOVUPS (AX), Y5
	ADDQ    R14, AX
	VMOVUPS (AX), Y6
	ADDQ    R14, AX
	VMOVUPS (AX), Y7

gt_contract:
	MOVQ a+16(FP), SI            // row 0's activations of the current k-group
	MOVQ R15, DX                 // the current k-group's first weight row
	MOVQ kGroups+72(FP), CX

gt_group:
	CMPQ bf+32(FP), $0
	JE   gt_widen
	VMOVUPS (DX), Y8
	VMOVUPS (DX)(R12*1), Y9
	VMOVUPS (DX)(R12*2), Y10
	VMOVUPS (DX)(R13*1), Y11
	JMP  gt_rows

gt_widen:
	VPMOVSXBD (DX), Y8
	VPMOVSXBD (DX)(R12*1), Y9
	VPMOVSXBD (DX)(R12*2), Y10
	VPMOVSXBD (DX)(R13*1), Y11
	VCVTDQ2PS Y8, Y8
	VCVTDQ2PS Y9, Y9
	VCVTDQ2PS Y10, Y10
	VCVTDQ2PS Y11, Y11

gt_rows:
	FOLD(0(SI), 4(SI), 8(SI), 12(SI), Y0)
	CMPQ rows+64(FP), $1
	JE   gt_next
	ROW((R8*1), Y1)
	CMPQ rows+64(FP), $2
	JE   gt_next
	ROW((R8*2), Y2)
	ROW((R9*1), Y3)
	CMPQ rows+64(FP), $4
	JE   gt_next
	ROW((R8*4), Y4)
	ROW((R10*1), Y5)
	ROW((R9*2), Y6)
	ROW((R11*1), Y7)

gt_next:
	ADDQ $16, SI
	LEAQ (DX)(R12*4), DX
	DECQ CX
	JNZ  gt_group

	MOVQ    DI, AX
	VMOVUPS Y0, (AX)
	CMPQ    rows+64(FP), $1
	JE      gt_stored
	ADDQ    R14, AX
	VMOVUPS Y1, (AX)
	CMPQ    rows+64(FP), $2
	JE      gt_stored
	ADDQ    R14, AX
	VMOVUPS Y2, (AX)
	ADDQ    R14, AX
	VMOVUPS Y3, (AX)
	CMPQ    rows+64(FP), $4
	JE      gt_stored
	ADDQ    R14, AX
	VMOVUPS Y4, (AX)
	ADDQ    R14, AX
	VMOVUPS Y5, (AX)
	ADDQ    R14, AX
	VMOVUPS Y6, (AX)
	ADDQ    R14, AX
	VMOVUPS Y7, (AX)

gt_stored:
	ADDQ $32, DI
	ADDQ stripStrideBytes+56(FP), R15
	DECQ BX
	JNZ  gt_strip

	VZEROUPPER
	RET

// CLAMPED loads eight floats from (SI) into Y1 and clamps them the way
// ClampFinite does: NaN to +0 (an ordered self-compare is all-ones exactly
// where the value is not NaN), then into [-bound, bound] with bound in Y14
// and -bound in Y15.
#define CLAMPED \
	VMOVUPS (SI), Y1;       \
	VCMPPS  $7, Y1, Y1, Y2; \
	VANDPS  Y2, Y1, Y1;     \
	VMINPS  Y14, Y1, Y1;    \
	VMAXPS  Y15, Y1, Y1

// BOUNDS sets Y14 = bound, Y15 = -bound and Y13 = the sign bit of every lane.
#define BOUNDS(B) \
	VBROADCASTSS B, Y14;       \
	VPCMPEQD     Y13, Y13, Y13; \
	VPSLLD       $31, Y13, Y13; \
	VXORPS       Y13, Y14, Y15

// func maxAbsClampedAVX2(src *float32, n int, bound float32) float32
//
// The largest |ClampFinite(src[i], bound)| over n elements, n a positive
// multiple of 8. A maximum of non-negative non-NaN values is the same in
// any order, so the eight lanes and their reduction need no contract.
TEXT ·maxAbsClampedAVX2(SB), NOSPLIT, $0-28
	PCALIGN $64
	MOVQ   src+0(FP), SI
	MOVQ   n+8(FP), CX
	BOUNDS(bound+16(FP))
	VXORPS Y0, Y0, Y0

ma_loop:
	CLAMPED
	VANDNPS Y1, Y13, Y1          // clear the sign: |v|
	VMAXPS  Y1, Y0, Y0
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     ma_loop

	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VSHUFPS      $0xEE, X0, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VMAXSS       X1, X0, X0
	VZEROUPPER
	MOVSS        X0, ret+24(FP)
	RET

// func quantizeScaledAVX2(dst *int8, src *float32, n int, bound, inv float32)
//
// dst[i] = the nearest integer, ties to even, to ClampFinite(src[i],
// bound)·inv held to [-127, 127], over n elements, n a positive multiple
// of 8. The product is one rounded float32 multiply as in the Go twin; the
// hold is applied before the conversion (it commutes with a monotone
// rounding to an integer grid that contains ±127), which keeps VCVTPS2DQ —
// round to nearest even under the default MXCSR — inside int32 for any
// finite inv, and the two packs then narrow without saturating.
TEXT ·quantizeScaledAVX2(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	BOUNDS(bound+24(FP))
	VBROADCASTSS inv+28(FP), Y12
	MOVL         $0x42fe0000, AX // 127.0
	VMOVQ        AX, X10
	VBROADCASTSS X10, Y10
	VXORPS       Y13, Y10, Y11   // -127.0

qs_loop:
	CLAMPED
	VMULPS       Y12, Y1, Y1     // v * inv
	VMINPS       Y10, Y1, Y1
	VMAXPS       Y11, Y1, Y1
	VCVTPS2DQ    Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPACKSSDW    X2, X1, X1      // eight int16, in order
	VPACKSSWB    X1, X1, X1      // eight int8 in the low half
	VMOVQ        X1, (DI)
	ADDQ         $32, SI
	ADDQ         $8, DI
	SUBQ         $8, CX
	JNZ          qs_loop

	VZEROUPPER
	RET
