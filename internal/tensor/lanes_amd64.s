#include "textflag.h"

// Column lanes for gemm (tensor.go): eight output columns per YMM register.
// Every lane does what the scalar loop does to its element, in the same
// order: s = o; s += x0*p0; s += x1*p1; s += x2*p2; s += x3*p3, with VMULPS
// rounding each product and VADDPS each sum. There is no FMA, so the bits
// match the Go loops exactly. R15 and BP are left alone.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func addPairLanes(o0, o1, b, v0, v1 []float32, n int)
TEXT ·addPairLanes(SB), NOSPLIT, $0-128
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	MOVQ o1_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ v0_base+72(FP), R8
	MOVQ v0_len+80(FP), R9
	MOVQ v1_base+96(FP), R10
	MOVQ n+120(FP), R11
	SHLQ $2, CX  // column bytes
	SHLQ $2, R11 // b row stride in bytes
	SHRQ $2, R9  // 4-term groups
	TESTQ CX, CX
	JZ   pairDone
	TESTQ R9, R9
	JZ   pairDone

pairGroup:
	VBROADCASTSS 0(R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	VBROADCASTSS 0(R10), Y4
	VBROADCASTSS 4(R10), Y5
	VBROADCASTSS 8(R10), Y6
	VBROADCASTSS 12(R10), Y7
	LEAQ (DX)(R11*1), R12 // B[t+1]
	LEAQ (R12)(R11*1), R13 // B[t+2]
	LEAQ (R13)(R11*1), BX  // B[t+3]
	XORQ AX, AX

pairCol:
	VMOVUPS (DX)(AX*1), Y8
	VMOVUPS (R12)(AX*1), Y9
	VMOVUPS (R13)(AX*1), Y10
	VMOVUPS (BX)(AX*1), Y11

	VMULPS Y8, Y0, Y12
	VADDPS (DI)(AX*1), Y12, Y12
	VMULPS Y9, Y1, Y13
	VADDPS Y13, Y12, Y12
	VMULPS Y10, Y2, Y13
	VADDPS Y13, Y12, Y12
	VMULPS Y11, Y3, Y13
	VADDPS Y13, Y12, Y12
	VMOVUPS Y12, (DI)(AX*1)

	VMULPS Y8, Y4, Y13
	VADDPS (SI)(AX*1), Y13, Y13
	VMULPS Y9, Y5, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y10, Y6, Y14
	VADDPS Y14, Y13, Y13
	VMULPS Y11, Y7, Y14
	VADDPS Y14, Y13, Y13
	VMOVUPS Y13, (SI)(AX*1)

	ADDQ $32, AX
	CMPQ AX, CX
	JB   pairCol

	LEAQ (BX)(R11*1), DX // B[t+4]
	ADDQ $16, R8
	ADDQ $16, R10
	DECQ R9
	JNZ  pairGroup

pairDone:
	VZEROUPPER
	RET

// func addTermsLanes(o, b, v []float32, off []int)
TEXT ·addTermsLanes(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), DX
	MOVQ v_base+48(FP), R8
	MOVQ v_len+56(FP), R9
	MOVQ off_base+72(FP), R10
	SHLQ $2, CX // column bytes
	SHRQ $2, R9 // 4-term groups
	TESTQ CX, CX
	JZ   termsDone
	TESTQ R9, R9
	JZ   termsDone

termsGroup:
	VBROADCASTSS 0(R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	MOVQ 0(R10), R11
	MOVQ 8(R10), R12
	MOVQ 16(R10), R13
	MOVQ 24(R10), BX
	LEAQ (DX)(R11*4), R11 // &b[off[t]]
	LEAQ (DX)(R12*4), R12
	LEAQ (DX)(R13*4), R13
	LEAQ (DX)(BX*4), BX
	XORQ AX, AX

termsCol:
	VMULPS (R11)(AX*1), Y0, Y4
	VADDPS (DI)(AX*1), Y4, Y4
	VMULPS (R12)(AX*1), Y1, Y5
	VADDPS Y5, Y4, Y4
	VMULPS (R13)(AX*1), Y2, Y5
	VADDPS Y5, Y4, Y4
	VMULPS (BX)(AX*1), Y3, Y5
	VADDPS Y5, Y4, Y4
	VMOVUPS Y4, (DI)(AX*1)

	ADDQ $32, AX
	CMPQ AX, CX
	JB   termsCol

	ADDQ $16, R8
	ADDQ $32, R10
	DECQ R9
	JNZ  termsGroup

termsDone:
	VZEROUPPER
	RET

// The kernels below run the rest of a layer at the same width. Each keeps
// one output element's operations in the Go loop's order; only the work
// across output elements is reordered.

// func aggLanes(o, h []float32, src []int32, wt, post []float32, n int)
//
// For every column block of o (32 columns in four registers, then 8 in
// one): acc = +0; acc += h[src[t]*n+j] (·wt[t] first, when wt is not
// empty) for t in order; acc ·= post[0] when post is not empty; o = acc.
TEXT ·aggLanes(SB), NOSPLIT, $0-128
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ h_base+24(FP), SI
	MOVQ src_base+48(FP), R8
	MOVQ src_len+56(FP), R9
	MOVQ wt_base+72(FP), R10
	MOVQ wt_len+80(FP), R11
	MOVQ post_len+104(FP), R12
	MOVQ n+120(FP), DX
	SHLQ $2, CX // column bytes
	SHLQ $2, DX // h row stride in bytes
	XORQ AX, AX
	TESTQ R12, R12
	JZ   agg32
	MOVQ post_base+96(FP), R13
	VBROADCASTSS (R13), Y14

agg32:
	MOVQ CX, R13
	SUBQ AX, R13
	CMPQ R13, $128
	JB   agg8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ BX, BX
	TESTQ R9, R9
	JZ   agg32Scale
	TESTQ R11, R11
	JNZ  agg32Wt

agg32Sum:
	MOVLQSX (R8)(BX*4), R13
	IMULQ DX, R13
	ADDQ SI, R13 // &h[src[t]*n]
	VADDPS (R13)(AX*1), Y0, Y0
	VADDPS 32(R13)(AX*1), Y1, Y1
	VADDPS 64(R13)(AX*1), Y2, Y2
	VADDPS 96(R13)(AX*1), Y3, Y3
	INCQ BX
	CMPQ BX, R9
	JB   agg32Sum
	JMP  agg32Scale

agg32Wt:
	MOVLQSX (R8)(BX*4), R13
	IMULQ DX, R13
	ADDQ SI, R13
	VBROADCASTSS (R10)(BX*4), Y4
	VMULPS (R13)(AX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(R13)(AX*1), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(R13)(AX*1), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(R13)(AX*1), Y4, Y8
	VADDPS Y8, Y3, Y3
	INCQ BX
	CMPQ BX, R9
	JB   agg32Wt

agg32Scale:
	TESTQ R12, R12
	JZ   agg32Store
	VMULPS Y14, Y0, Y0
	VMULPS Y14, Y1, Y1
	VMULPS Y14, Y2, Y2
	VMULPS Y14, Y3, Y3

agg32Store:
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	JMP  agg32

agg8:
	CMPQ AX, CX
	JAE  aggDone
	VXORPS Y0, Y0, Y0
	XORQ BX, BX
	TESTQ R9, R9
	JZ   agg8Scale
	TESTQ R11, R11
	JNZ  agg8Wt

agg8Sum:
	MOVLQSX (R8)(BX*4), R13
	IMULQ DX, R13
	ADDQ SI, R13
	VADDPS (R13)(AX*1), Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JB   agg8Sum
	JMP  agg8Scale

agg8Wt:
	MOVLQSX (R8)(BX*4), R13
	IMULQ DX, R13
	ADDQ SI, R13
	VBROADCASTSS (R10)(BX*4), Y4
	VMULPS (R13)(AX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JB   agg8Wt

agg8Scale:
	TESTQ R12, R12
	JZ   agg8Store
	VMULPS Y14, Y0, Y0

agg8Store:
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  agg8

aggDone:
	VZEROUPPER
	RET

// func scatterLanes(o, g []float32, pos, rows []int32, scale, wt []float32, n int)
//
// For every column block of o (32 columns, then 8): acc = o; for t in
// order, with e = pos[t] and r = rows[e] (r = e when rows is nil),
// x = g[r*n+j]; x ·= scale[r] when scale is not nil; x ·= wt[e] when wt is
// not nil; acc += x; then o = acc.
TEXT ·scatterLanes(SB), NOSPLIT, $0-152
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ pos_base+48(FP), R8
	MOVQ pos_len+56(FP), R9
	MOVQ rows_base+72(FP), R10
	MOVQ scale_base+96(FP), R11
	MOVQ wt_base+120(FP), R12
	SHLQ $2, CX // column bytes
	XORQ AX, AX

scat32Next:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $128
	JB   scat8
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMOVUPS 64(DI)(AX*1), Y2
	VMOVUPS 96(DI)(AX*1), Y3
	XORQ BX, BX
	TESTQ R9, R9
	JZ   scat32Store

scat32Term:
	MOVLQSX (R8)(BX*4), R13 // e
	MOVQ R13, DX            // r = e
	TESTQ R10, R10
	JZ   scat32Row
	MOVLQSX (R10)(R13*4), DX // r = rows[e]

scat32Row:
	TESTQ R11, R11
	JZ   scat32Load
	VBROADCASTSS (R11)(DX*4), Y8

scat32Load:
	IMULQ n+144(FP), DX
	LEAQ (SI)(DX*4), DX // &g[r*n]
	VMOVUPS (DX)(AX*1), Y4
	VMOVUPS 32(DX)(AX*1), Y5
	VMOVUPS 64(DX)(AX*1), Y6
	VMOVUPS 96(DX)(AX*1), Y7
	TESTQ R11, R11
	JZ   scat32Wt
	VMULPS Y8, Y4, Y4
	VMULPS Y8, Y5, Y5
	VMULPS Y8, Y6, Y6
	VMULPS Y8, Y7, Y7

scat32Wt:
	TESTQ R12, R12
	JZ   scat32Add
	VBROADCASTSS (R12)(R13*4), Y9
	VMULPS Y9, Y4, Y4
	VMULPS Y9, Y5, Y5
	VMULPS Y9, Y6, Y6
	VMULPS Y9, Y7, Y7

scat32Add:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	INCQ BX
	CMPQ BX, R9
	JB   scat32Term

scat32Store:
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	VMOVUPS Y2, 64(DI)(AX*1)
	VMOVUPS Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	JMP  scat32Next

scat8:
	CMPQ AX, CX
	JAE  scatDone
	VMOVUPS (DI)(AX*1), Y0
	XORQ BX, BX
	TESTQ R9, R9
	JZ   scat8Store

scat8Term:
	MOVLQSX (R8)(BX*4), R13
	MOVQ R13, DX
	TESTQ R10, R10
	JZ   scat8Row
	MOVLQSX (R10)(R13*4), DX

scat8Row:
	TESTQ R11, R11
	JZ   scat8Load
	VBROADCASTSS (R11)(DX*4), Y8

scat8Load:
	IMULQ n+144(FP), DX
	LEAQ (SI)(DX*4), DX
	VMOVUPS (DX)(AX*1), Y4
	TESTQ R11, R11
	JZ   scat8Wt
	VMULPS Y8, Y4, Y4

scat8Wt:
	TESTQ R12, R12
	JZ   scat8Add
	VBROADCASTSS (R12)(R13*4), Y9
	VMULPS Y9, Y4, Y4

scat8Add:
	VADDPS Y4, Y0, Y0
	INCQ BX
	CMPQ BX, R9
	JB   scat8Term

scat8Store:
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  scat8

scatDone:
	VZEROUPPER
	RET

// func biasLanes(o, bias []float32, n int, relu bool)
//
// For every row of o (row stride n) and every column j < len(bias), a
// multiple of 8: v = o + bias[j]; with relu, v = v > 0 ? v : +0 (VMAXPS
// returns its second source, +0, when v is ±0 or NaN); o = v.
TEXT ·biasLanes(SB), NOSPLIT, $0-57
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ bias_base+24(FP), SI
	MOVQ bias_len+32(FP), R8
	MOVQ n+48(FP), DX
	MOVBQZX relu+56(FP), R9
	SHLQ $2, CX // o bytes
	SHLQ $2, R8 // lane column bytes
	SHLQ $2, DX // row stride in bytes
	TESTQ R8, R8
	JZ   biasDone
	VXORPS Y7, Y7, Y7
	XORQ BX, BX // row offset

biasRow:
	CMPQ BX, CX
	JAE  biasDone
	LEAQ (DI)(BX*1), R10
	XORQ AX, AX

biasCol:
	VMOVUPS (R10)(AX*1), Y0
	VADDPS (SI)(AX*1), Y0, Y0
	TESTQ R9, R9
	JZ   biasStore
	VMAXPS Y7, Y0, Y0

biasStore:
	VMOVUPS Y0, (R10)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R8
	JB   biasCol
	ADDQ DX, BX
	JMP  biasRow

biasDone:
	VZEROUPPER
	RET

// func maskSumLanes(d, x, v, p []float32, n int)
//
// For every row of x (row stride n) and every column j < n &^ 7: y = x;
// when v is not nil, y = v > 0 ? y : +0 (an AND with the compare mask)
// and d = y; when p is not nil, p[j] += y, the rows added in order.
TEXT ·maskSumLanes(SB), NOSPLIT, $0-104
	MOVQ d_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ v_base+48(FP), R8
	MOVQ p_base+72(FP), R10
	MOVQ n+96(FP), DX
	SHLQ $2, CX // x bytes
	MOVQ DX, R11
	ANDQ $-8, R11
	SHLQ $2, R11 // lane column bytes
	SHLQ $2, DX  // row stride in bytes
	TESTQ R11, R11
	JZ   maskDone
	VXORPS Y7, Y7, Y7
	XORQ BX, BX // row offset

maskRow:
	CMPQ BX, CX
	JAE  maskDone
	LEAQ (SI)(BX*1), R12 // x row
	LEAQ (R8)(BX*1), R13 // v row
	LEAQ (DI)(BX*1), R9  // d row
	XORQ AX, AX

maskCol:
	VMOVUPS (R12)(AX*1), Y0
	TESTQ R8, R8
	JZ   maskSum
	VCMPPS $1, (R13)(AX*1), Y7, Y1 // 0 < v
	VANDPS Y1, Y0, Y0
	VMOVUPS Y0, (R9)(AX*1)

maskSum:
	TESTQ R10, R10
	JZ   maskNext
	VADDPS (R10)(AX*1), Y0, Y0
	VMOVUPS Y0, (R10)(AX*1)

maskNext:
	ADDQ $32, AX
	CMPQ AX, R11
	JB   maskCol
	ADDQ DX, BX
	JMP  maskRow

maskDone:
	VZEROUPPER
	RET

// func zeroLanes(a []float32) bool
//
// Reports whether any of a[:len(a) &^ 7] is ±0 (an ordered compare with
// +0, so NaN is not zero), scanning 32 values per step.
TEXT ·zeroLanes(SB), NOSPLIT, $0-25
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	SHLQ $2, CX
	ANDQ $-32, CX // lane bytes
	VXORPS Y7, Y7, Y7
	XORQ AX, AX

zero32:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $128
	JB   zero8
	VCMPPS $0, (SI)(AX*1), Y7, Y0
	VCMPPS $0, 32(SI)(AX*1), Y7, Y1
	VCMPPS $0, 64(SI)(AX*1), Y7, Y2
	VCMPPS $0, 96(SI)(AX*1), Y7, Y3
	VORPS Y1, Y0, Y0
	VORPS Y3, Y2, Y2
	VORPS Y2, Y0, Y0
	VPTEST Y0, Y0
	JNZ  zeroFound
	ADDQ $128, AX
	JMP  zero32

zero8:
	CMPQ AX, CX
	JAE  zeroNone
	VCMPPS $0, (SI)(AX*1), Y7, Y0
	VPTEST Y0, Y0
	JNZ  zeroFound
	ADDQ $32, AX
	JMP  zero8

zeroNone:
	MOVB $0, ret+24(FP)
	VZEROUPPER
	RET

zeroFound:
	MOVB $1, ret+24(FP)
	VZEROUPPER
	RET
