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
