// AVX2 kernels for the float32 and int8×float32 inner loops.
//
// Bit-compatibility rules (the package comment's accumulation contract):
//
//   - Arithmetic is VMULPS/VADDPS only — no FMA — so every operation is an
//     individually rounded float32 op, exactly like the Go scalar twin.
//   - Reducing kernels keep 16 partial sums in Y0 (lanes 0-7) and Y1
//     (lanes 8-15) and reduce with one fixed tree: Y0+Y1, high128+low128,
//     (v2,v3)+(v0,v1), lane1+lane0. The scalar twin's dotReduceTree mirrors
//     this instruction for instruction.
//   - Operand order matters for NaN payload propagation: products are
//     computed as a*b (a is VMULPS src2) and sums as acc+term (acc is
//     VADDPS src2), matching the Go expressions `a[i] * b[i]` and
//     `acc + term`.
//
// Counts are guaranteed by the Go wrappers: positive multiples of 16 for
// dot kernels, of 8 for the elementwise ones. int8 rows are sign-extended
// with VPMOVSXBD and converted with VCVTDQ2PS — both exact for int8 range,
// identical to Go's float32(int8) conversion.

#include "textflag.h"

// func dotF32AVX2(a, b *float32, n int) float32
TEXT ·dotF32AVX2(SB), NOSPLIT, $0-28
	PCALIGN $64
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0          // lanes 0-7
	VXORPS Y1, Y1, Y1          // lanes 8-15

dotloop:
	VMOVUPS (SI), Y2
	VMOVUPS 32(SI), Y3
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMULPS  Y4, Y2, Y2         // a * b
	VMULPS  Y5, Y3, Y3
	VADDPS  Y2, Y0, Y0         // acc + product
	VADDPS  Y3, Y1, Y1
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JNZ     dotloop

	VADDPS       Y1, Y0, Y0    // u[j] = lane[j] + lane[j+8]
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0    // v[j] = u[j] + u[j+4]
	VSHUFPS      $0xEE, X0, X0, X1
	VADDPS       X1, X0, X0    // w0 = v0+v2, w1 = v1+v3
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0    // r = w0 + w1
	VZEROUPPER
	MOVSS        X0, ret+24(FP)
	RET

// func dotF32I8AVX2(a *float32, b *int8, n int) float32
TEXT ·dotF32I8AVX2(SB), NOSPLIT, $0-28
	PCALIGN $64
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

doti8loop:
	VMOVUPS    (SI), Y2
	VMOVUPS    32(SI), Y3
	VPMOVSXBD  (DI), Y4        // 8 int8 -> 8 int32
	VPMOVSXBD  8(DI), Y5
	VCVTDQ2PS  Y4, Y4          // int32 -> float32, exact for int8 range
	VCVTDQ2PS  Y5, Y5
	VMULPS     Y4, Y2, Y2
	VMULPS     Y5, Y3, Y3
	VADDPS     Y2, Y0, Y0
	VADDPS     Y3, Y1, Y1
	ADDQ       $64, SI
	ADDQ       $16, DI
	SUBQ       $16, CX
	JNZ        doti8loop

	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VSHUFPS      $0xEE, X0, X0, X1
	VADDPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0
	VZEROUPPER
	MOVSS        X0, ret+24(FP)
	RET

// func axpyF32I8AVX2(dst *float32, s float32, v *int8, n int)
TEXT ·axpyF32I8AVX2(SB), NOSPLIT, $0-32
	PCALIGN $64
	MOVQ         dst+0(FP), DI
	VBROADCASTSS s+8(FP), Y6
	MOVQ         v+16(FP), SI
	MOVQ         n+24(FP), CX

axpyi8loop:
	VPMOVSXBD (SI), Y2
	VCVTDQ2PS Y2, Y2
	VMULPS    Y2, Y6, Y2       // s * float32(v)
	VMOVUPS   (DI), Y3
	VADDPS    Y2, Y3, Y3
	VMOVUPS   Y3, (DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       axpyi8loop

	VZEROUPPER
	RET

// func mulAdd4F32AVX2(dst, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int)
TEXT ·mulAdd4F32AVX2(SB), NOSPLIT, $0-64
	PCALIGN $64
	MOVQ         dst+0(FP), DI
	MOVQ         b0+8(FP), R8
	MOVQ         b1+16(FP), R9
	MOVQ         b2+24(FP), R10
	MOVQ         b3+32(FP), R11
	VBROADCASTSS a0+40(FP), Y12
	VBROADCASTSS a1+44(FP), Y13
	VBROADCASTSS a2+48(FP), Y14
	VBROADCASTSS a3+52(FP), Y15
	MOVQ         n+56(FP), CX

ma4loop:
	VMOVUPS (R8), Y2
	VMULPS  Y2, Y12, Y2        // a0 * b0[j]
	VMOVUPS (R9), Y3
	VMULPS  Y3, Y13, Y3
	VADDPS  Y3, Y2, Y2         // + a1*b1[j]
	VMOVUPS (R10), Y4
	VMULPS  Y4, Y14, Y4
	VADDPS  Y4, Y2, Y2         // + a2*b2[j]
	VMOVUPS (R11), Y5
	VMULPS  Y5, Y15, Y5
	VADDPS  Y5, Y2, Y2         // + a3*b3[j]
	VMOVUPS (DI), Y3
	VADDPS  Y2, Y3, Y3         // dst + sum
	VMOVUPS Y3, (DI)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     ma4loop

	VZEROUPPER
	RET

// func mulAdd4F32I8AVX2(dst *float32, q0, q1, q2, q3 *int8, a0, a1, a2, a3 float32, n int)
TEXT ·mulAdd4F32I8AVX2(SB), NOSPLIT, $0-64
	PCALIGN $64
	MOVQ         dst+0(FP), DI
	MOVQ         q0+8(FP), R8
	MOVQ         q1+16(FP), R9
	MOVQ         q2+24(FP), R10
	MOVQ         q3+32(FP), R11
	VBROADCASTSS a0+40(FP), Y12
	VBROADCASTSS a1+44(FP), Y13
	VBROADCASTSS a2+48(FP), Y14
	VBROADCASTSS a3+52(FP), Y15
	MOVQ         n+56(FP), CX

ma4i8loop:
	VPMOVSXBD (R8), Y2
	VCVTDQ2PS Y2, Y2
	VMULPS    Y2, Y12, Y2
	VPMOVSXBD (R9), Y3
	VCVTDQ2PS Y3, Y3
	VMULPS    Y3, Y13, Y3
	VADDPS    Y3, Y2, Y2
	VPMOVSXBD (R10), Y4
	VCVTDQ2PS Y4, Y4
	VMULPS    Y4, Y14, Y4
	VADDPS    Y4, Y2, Y2
	VPMOVSXBD (R11), Y5
	VCVTDQ2PS Y5, Y5
	VMULPS    Y5, Y15, Y5
	VADDPS    Y5, Y2, Y2
	VMOVUPS   (DI), Y3
	VADDPS    Y2, Y3, Y3
	VMOVUPS   Y3, (DI)
	ADDQ      $8, R8
	ADDQ      $8, R9
	ADDQ      $8, R10
	ADDQ      $8, R11
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       ma4i8loop

	VZEROUPPER
	RET
