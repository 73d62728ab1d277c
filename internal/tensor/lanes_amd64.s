#include "textflag.h"

// Column lanes for the kernels of tensor.go and fused.go: eight output
// columns per YMM register. Every lane does what the scalar loop does to its
// element, in the same order, with VMULPS rounding each product and VADDPS
// each sum. There is no FMA, so the bits match the Go loops exactly. R15
// and BP are left alone.

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

// The gemm kernels. Both keep each output element's accumulator in a
// register across all of its terms: s starts at the output (sumOnto) or at
// +0 (sumSet, sumAdd); s = s + v·B for each term in order, VMULPS rounding
// the product and VADDPS the sum; then the output becomes s (sumOnto,
// sumSet) or output + s (sumAdd). Columns past the last multiple of 8 run
// in one more register through VMASKMOVPS, whose masked-off lanes are
// neither read nor written, so no column is left to a Go loop.

// tailMask<>+32-4r is the mask of the first r of eight lanes.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// func tileLanes(c, a *[4][]float32, b []float32, ldb, mode int)
//
// A 4-row tile: for r < 4 and every column j < len(c[0]), the terms are
// a[r][t]·b[t*ldb+j], t < len(a[0]). The columns run in blocks of 16
// (eight accumulators, two per row), then 8, then the masked rest. Every C
// row is read before any is written, so rows that repeat one slice compute
// and store the same values. Nothing is bounds-checked.
//
// TILEPASS is one column block at byte offset AX: the accumulators come
// from the four C rows (LD, for sumOnto: X14 = mode = 0) or start at +0
// (ZR); each term runs K on the b row at BX and the multipliers at byte
// offset CX of the A rows R8, R9, R13 and SI; then, for sumAdd, ADD adds
// the C rows in, and ST stores them. R11 steps through the C rows at DI.
#define TILEPASS(LZ, LGO, LK, LEND, LST, LD, ZR, K, ADD, ST) \
	VMOVQ X14, R11; \
	TESTQ R11, R11; \
	JNZ  LZ; \
	LD; \
	JMP  LGO; \
LZ: \
	ZR; \
LGO: \
	MOVQ R12, BX; \
	XORQ CX, CX; \
	TESTQ R14, R14; \
	JZ   LEND; \
LK: \
	K; \
	ADDQ R10, BX; \
	ADDQ $4, CX; \
	CMPQ CX, R14; \
	JB   LK; \
LEND: \
	VMOVQ X14, R11; \
	CMPQ R11, $2; \
	JNE  LST; \
	ADD; \
LST: \
	ST

// Each row r of a block: C row r (at 24r(DI)) into R11, then an op on its
// one or two registers.
#define CROW(r) MOVQ r(DI), R11
#define TLD16 CROW(0); VMOVUPS (R11)(AX*1), Y0; VMOVUPS 32(R11)(AX*1), Y1; CROW(24); VMOVUPS (R11)(AX*1), Y2; VMOVUPS 32(R11)(AX*1), Y3; CROW(48); VMOVUPS (R11)(AX*1), Y4; VMOVUPS 32(R11)(AX*1), Y5; CROW(72); VMOVUPS (R11)(AX*1), Y6; VMOVUPS 32(R11)(AX*1), Y7
#define TZR16 VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3; VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
#define TADD16 CROW(0); VADDPS (R11)(AX*1), Y0, Y0; VADDPS 32(R11)(AX*1), Y1, Y1; CROW(24); VADDPS (R11)(AX*1), Y2, Y2; VADDPS 32(R11)(AX*1), Y3, Y3; CROW(48); VADDPS (R11)(AX*1), Y4, Y4; VADDPS 32(R11)(AX*1), Y5, Y5; CROW(72); VADDPS (R11)(AX*1), Y6, Y6; VADDPS 32(R11)(AX*1), Y7, Y7
#define TST16 CROW(0); VMOVUPS Y0, (R11)(AX*1); VMOVUPS Y1, 32(R11)(AX*1); CROW(24); VMOVUPS Y2, (R11)(AX*1); VMOVUPS Y3, 32(R11)(AX*1); CROW(48); VMOVUPS Y4, (R11)(AX*1); VMOVUPS Y5, 32(R11)(AX*1); CROW(72); VMOVUPS Y6, (R11)(AX*1); VMOVUPS Y7, 32(R11)(AX*1)
#define MUL16(a, x, y0, y1) VBROADCASTSS (a)(CX*1), x; VMULPS Y8, x, Y11; VADDPS Y11, y0, y0; VMULPS Y9, x, Y12; VADDPS Y12, y1, y1
#define TK16 VMOVUPS (BX), Y8; VMOVUPS 32(BX), Y9; MUL16(R8, Y10, Y0, Y1); MUL16(R9, Y13, Y2, Y3); MUL16(R13, Y10, Y4, Y5); MUL16(SI, Y13, Y6, Y7)
#define TLD8 CROW(0); VMOVUPS (R11)(AX*1), Y0; CROW(24); VMOVUPS (R11)(AX*1), Y1; CROW(48); VMOVUPS (R11)(AX*1), Y2; CROW(72); VMOVUPS (R11)(AX*1), Y3
#define TZR8 VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3
#define TADD8 CROW(0); VADDPS (R11)(AX*1), Y0, Y0; CROW(24); VADDPS (R11)(AX*1), Y1, Y1; CROW(48); VADDPS (R11)(AX*1), Y2, Y2; CROW(72); VADDPS (R11)(AX*1), Y3, Y3
#define TST8 CROW(0); VMOVUPS Y0, (R11)(AX*1); CROW(24); VMOVUPS Y1, (R11)(AX*1); CROW(48); VMOVUPS Y2, (R11)(AX*1); CROW(72); VMOVUPS Y3, (R11)(AX*1)
#define MUL8(a, x, t, y) VBROADCASTSS (a)(CX*1), x; VMULPS Y8, x, t; VADDPS t, y, y
#define TK8 VMOVUPS (BX), Y8; MUL8(R8, Y10, Y11, Y0); MUL8(R9, Y12, Y13, Y1); MUL8(R13, Y10, Y11, Y2); MUL8(SI, Y12, Y13, Y3)
#define TLDM CROW(0); VMASKMOVPS (R11)(AX*1), Y15, Y0; CROW(24); VMASKMOVPS (R11)(AX*1), Y15, Y1; CROW(48); VMASKMOVPS (R11)(AX*1), Y15, Y2; CROW(72); VMASKMOVPS (R11)(AX*1), Y15, Y3
#define TADDM CROW(0); VMASKMOVPS (R11)(AX*1), Y15, Y9; VADDPS Y9, Y0, Y0; CROW(24); VMASKMOVPS (R11)(AX*1), Y15, Y9; VADDPS Y9, Y1, Y1; CROW(48); VMASKMOVPS (R11)(AX*1), Y15, Y9; VADDPS Y9, Y2, Y2; CROW(72); VMASKMOVPS (R11)(AX*1), Y15, Y9; VADDPS Y9, Y3, Y3
#define TSTM CROW(0); VMASKMOVPS Y0, Y15, (R11)(AX*1); CROW(24); VMASKMOVPS Y1, Y15, (R11)(AX*1); CROW(48); VMASKMOVPS Y2, Y15, (R11)(AX*1); CROW(72); VMASKMOVPS Y3, Y15, (R11)(AX*1)
#define TKM VMASKMOVPS (BX), Y15, Y8; MUL8(R8, Y10, Y11, Y0); MUL8(R9, Y12, Y13, Y1); MUL8(R13, Y10, Y11, Y2); MUL8(SI, Y12, Y13, Y3)

TEXT ·tileLanes(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), R11
	MOVQ 0(R11), R8
	MOVQ 24(R11), R9
	MOVQ 48(R11), R13
	MOVQ 72(R11), SI
	MOVQ 8(R11), R14 // terms
	SHLQ $2, R14     // term bytes
	MOVQ 8(DI), DX   // columns
	SHLQ $2, DX      // column bytes
	MOVQ b_base+16(FP), R12
	MOVQ ldb+40(FP), R10
	SHLQ $2, R10     // b row stride in bytes
	MOVQ mode+48(FP), R11
	VMOVQ R11, X14
	XORQ AX, AX      // column byte offset

tile16:
	MOVQ DX, R11
	SUBQ AX, R11
	CMPQ R11, $64
	JB   tile8
	TILEPASS(tile16Zero, tile16Go, tile16K, tile16End, tile16St, TLD16, TZR16, TK16, TADD16, TST16)
	ADDQ $64, AX
	ADDQ $64, R12
	JMP  tile16

tile8:
	CMPQ R11, $32
	JB   tileTail
	TILEPASS(tile8Zero, tile8Go, tile8K, tile8End, tile8St, TLD8, TZR8, TK8, TADD8, TST8)
	ADDQ $32, AX
	ADDQ $32, R12
	MOVQ DX, R11
	SUBQ AX, R11
	JMP  tile8

tileTail:
	TESTQ R11, R11
	JZ   tileDone
	LEAQ tailMask<>+32(SB), CX
	SUBQ R11, CX
	VMOVUPS (CX), Y15
	TILEPASS(tileTZero, tileTGo, tileTK, tileTEnd, tileTSt, TLDM, TZR8, TKM, TADDM, TSTM)

tileDone:
	VZEROUPPER
	RET


// func rowLanes(c, b, v []float32, off []int, mode int)
//
// One row: for every column j < len(c), the terms are v[t]·b[off[t]+j],
// t < len(v). The columns run in passes of up to 64 (eight accumulators,
// Y0-Y7): full 64-column passes, then one of F full registers and, when
// len(c) is not a multiple of 8, a masked one (Y15 holds the mask). mode
// is sumOnto or sumSet. Nothing is bounds-checked.
//
// ROWPASS is one pass: LD loads the accumulators from c (sumOnto, R12 = 0) or ZR
// clears them (sumSet); each term broadcasts v[t] to Y8, points R11 at
// b[off[t]] plus the pass's column, and runs MA; ST stores them.
#define ROWPASS(LZ, LGO, LK, LEND, LD, ZR, MA, ST) \
	TESTQ R12, R12; \
	JNZ  LZ; \
	LD; \
	JMP  LGO; \
LZ: \
	ZR; \
LGO: \
	XORQ CX, CX; \
	TESTQ R14, R14; \
	JZ   LEND; \
LK: \
	VBROADCASTSS (SI)(CX*4), Y8; \
	MOVQ (R8)(CX*8), R11; \
	LEAQ (BX)(R11*4), R11; \
	MA; \
	INCQ CX; \
	CMPQ CX, R14; \
	JB   LK; \
LEND: \
	ST

// The accumulator k of a pass, at byte offset 32k of the pass's columns:
// load, clear, multiply-add one term, store; and the same, masked.
#define LD(o, y) VMOVUPS o(DI), y
#define ZR(y) VXORPS y, y, y
#define MA(o, y, t) VMULPS o(R11), Y8, t; VADDPS t, y, y
#define ST(o, y) VMOVUPS y, o(DI)
#define LDM(o, y) VMASKMOVPS o(DI), Y15, y
#define MAM(o, y) VMASKMOVPS o(R11), Y15, Y13; VMULPS Y13, Y8, Y13; VADDPS Y13, y, y
#define STM(o, y) VMASKMOVPS y, Y15, o(DI)

#define LD1 LD(0, Y0)
#define LD2 LD1; LD(32, Y1)
#define LD3 LD2; LD(64, Y2)
#define LD4 LD3; LD(96, Y3)
#define LD5 LD4; LD(128, Y4)
#define LD6 LD5; LD(160, Y5)
#define LD7 LD6; LD(192, Y6)
#define LD8 LD7; LD(224, Y7)
#define ZR1 ZR(Y0)
#define ZR2 ZR1; ZR(Y1)
#define ZR3 ZR2; ZR(Y2)
#define ZR4 ZR3; ZR(Y3)
#define ZR5 ZR4; ZR(Y4)
#define ZR6 ZR5; ZR(Y5)
#define ZR7 ZR6; ZR(Y6)
#define ZR8 ZR7; ZR(Y7)
#define MA1 MA(0, Y0, Y9)
#define MA2 MA1; MA(32, Y1, Y10)
#define MA3 MA2; MA(64, Y2, Y11)
#define MA4 MA3; MA(96, Y3, Y12)
#define MA5 MA4; MA(128, Y4, Y9)
#define MA6 MA5; MA(160, Y5, Y10)
#define MA7 MA6; MA(192, Y6, Y11)
#define MA8 MA7; MA(224, Y7, Y12)
#define ST1 ST(0, Y0)
#define ST2 ST1; ST(32, Y1)
#define ST3 ST2; ST(64, Y2)
#define ST4 ST3; ST(96, Y3)
#define ST5 ST4; ST(128, Y4)
#define ST6 ST5; ST(160, Y5)
#define ST7 ST6; ST(192, Y6)
#define ST8 ST7; ST(224, Y7)
#define LDM0 LDM(0, Y0)
#define ZRM0 ZR(Y0)
#define MAM0 MAM(0, Y0)
#define STM0 STM(0, Y0)
#define LDM1 LD1; LDM(32, Y1)
#define ZRM1 ZR1; ZR(Y1)
#define MAM1 MA1; MAM(32, Y1)
#define STM1 ST1; STM(32, Y1)
#define LDM2 LD2; LDM(64, Y2)
#define ZRM2 ZR2; ZR(Y2)
#define MAM2 MA2; MAM(64, Y2)
#define STM2 ST2; STM(64, Y2)
#define LDM3 LD3; LDM(96, Y3)
#define ZRM3 ZR3; ZR(Y3)
#define MAM3 MA3; MAM(96, Y3)
#define STM3 ST3; STM(96, Y3)
#define LDM4 LD4; LDM(128, Y4)
#define ZRM4 ZR4; ZR(Y4)
#define MAM4 MA4; MAM(128, Y4)
#define STM4 ST4; STM(128, Y4)
#define LDM5 LD5; LDM(160, Y5)
#define ZRM5 ZR5; ZR(Y5)
#define MAM5 MA5; MAM(160, Y5)
#define STM5 ST5; STM(160, Y5)
#define LDM6 LD6; LDM(192, Y6)
#define ZRM6 ZR6; ZR(Y6)
#define MAM6 MA6; MAM(192, Y6)
#define STM6 ST6; STM(192, Y6)
#define LDM7 LD7; LDM(224, Y7)
#define ZRM7 ZR7; ZR(Y7)
#define MAM7 MA7; MAM(224, Y7)
#define STM7 ST7; STM(224, Y7)

TEXT ·rowLanes(SB), NOSPLIT, $0-104
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), DX
	MOVQ b_base+24(FP), BX
	MOVQ v_base+48(FP), SI
	MOVQ v_len+56(FP), R14
	MOVQ off_base+72(FP), R8
	MOVQ mode+96(FP), R12
	SHLQ $2, DX // column bytes left

row64:
	CMPQ DX, $256
	JB   rowRest
	ROWPASS(rowF8Zero, rowF8Go, rowF8K, rowF8End, LD8, ZR8, MA8, ST8)
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $256, DX
	JMP  row64

rowRest:
	TESTQ DX, DX
	JZ   rowDone
	MOVQ DX, R11
	SHRQ $5, R11 // full registers
	MOVQ DX, CX
	ANDQ $31, CX // tail bytes
	JZ   rowFull
	LEAQ tailMask<>+32(SB), R10
	SUBQ CX, R10
	VMOVUPS (R10), Y15
	CMPQ R11, $0
	JEQ  rowM0
	CMPQ R11, $1
	JEQ  rowM1
	CMPQ R11, $2
	JEQ  rowM2
	CMPQ R11, $3
	JEQ  rowM3
	CMPQ R11, $4
	JEQ  rowM4
	CMPQ R11, $5
	JEQ  rowM5
	CMPQ R11, $6
	JEQ  rowM6
	JMP  rowM7

rowFull:
	CMPQ R11, $1
	JEQ  rowF1
	CMPQ R11, $2
	JEQ  rowF2
	CMPQ R11, $3
	JEQ  rowF3
	CMPQ R11, $4
	JEQ  rowF4
	CMPQ R11, $5
	JEQ  rowF5
	CMPQ R11, $6
	JEQ  rowF6
	JMP  rowF7

rowM0:
	ROWPASS(rowM0Zero, rowM0Go, rowM0K, rowM0End, LDM0, ZRM0, MAM0, STM0)
	JMP  rowDone

rowM1:
	ROWPASS(rowM1Zero, rowM1Go, rowM1K, rowM1End, LDM1, ZRM1, MAM1, STM1)
	JMP  rowDone

rowM2:
	ROWPASS(rowM2Zero, rowM2Go, rowM2K, rowM2End, LDM2, ZRM2, MAM2, STM2)
	JMP  rowDone

rowM3:
	ROWPASS(rowM3Zero, rowM3Go, rowM3K, rowM3End, LDM3, ZRM3, MAM3, STM3)
	JMP  rowDone

rowM4:
	ROWPASS(rowM4Zero, rowM4Go, rowM4K, rowM4End, LDM4, ZRM4, MAM4, STM4)
	JMP  rowDone

rowM5:
	ROWPASS(rowM5Zero, rowM5Go, rowM5K, rowM5End, LDM5, ZRM5, MAM5, STM5)
	JMP  rowDone

rowM6:
	ROWPASS(rowM6Zero, rowM6Go, rowM6K, rowM6End, LDM6, ZRM6, MAM6, STM6)
	JMP  rowDone

rowM7:
	ROWPASS(rowM7Zero, rowM7Go, rowM7K, rowM7End, LDM7, ZRM7, MAM7, STM7)
	JMP  rowDone

rowF1:
	ROWPASS(rowF1Zero, rowF1Go, rowF1K, rowF1End, LD1, ZR1, MA1, ST1)
	JMP  rowDone

rowF2:
	ROWPASS(rowF2Zero, rowF2Go, rowF2K, rowF2End, LD2, ZR2, MA2, ST2)
	JMP  rowDone

rowF3:
	ROWPASS(rowF3Zero, rowF3Go, rowF3K, rowF3End, LD3, ZR3, MA3, ST3)
	JMP  rowDone

rowF4:
	ROWPASS(rowF4Zero, rowF4Go, rowF4K, rowF4End, LD4, ZR4, MA4, ST4)
	JMP  rowDone

rowF5:
	ROWPASS(rowF5Zero, rowF5Go, rowF5K, rowF5End, LD5, ZR5, MA5, ST5)
	JMP  rowDone

rowF6:
	ROWPASS(rowF6Zero, rowF6Go, rowF6K, rowF6End, LD6, ZR6, MA6, ST6)
	JMP  rowDone

rowF7:
	ROWPASS(rowF7Zero, rowF7Go, rowF7K, rowF7End, LD7, ZR7, MA7, ST7)
	JMP  rowDone

rowDone:
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

// func biasLanes(o, bias []float32, relu bool)
//
// For every row of o (row stride len(bias)) and every column j: v = o +
// bias[j]; with relu, v = v > 0 ? v : +0 (VMAXPS returns its second
// source, +0, when v is ±0 or NaN); o = v. The len(bias) % 8 last columns
// run masked, with the bias tail in Y6.
TEXT ·biasLanes(SB), NOSPLIT, $0-49
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ bias_base+24(FP), SI
	MOVQ bias_len+32(FP), R8
	MOVBQZX relu+48(FP), R9
	SHLQ $2, CX // o bytes
	SHLQ $2, R8 // row bytes
	TESTQ R8, R8
	JZ   biasDone
	MOVQ R8, R11
	ANDQ $31, R11 // tail bytes
	SUBQ R11, R8  // full lane bytes
	VXORPS Y7, Y7, Y7
	TESTQ R11, R11
	JZ   biasRows
	LEAQ tailMask<>+32(SB), R12
	SUBQ R11, R12
	VMOVUPS (R12), Y15
	VMASKMOVPS (SI)(R8*1), Y15, Y6

biasRows:
	XORQ BX, BX // row offset

biasRow:
	CMPQ BX, CX
	JAE  biasDone
	LEAQ (DI)(BX*1), R10
	XORQ AX, AX

biasCol:
	CMPQ AX, R8
	JAE  biasTail
	VMOVUPS (R10)(AX*1), Y0
	VADDPS (SI)(AX*1), Y0, Y0
	TESTQ R9, R9
	JZ   biasStore
	VMAXPS Y7, Y0, Y0

biasStore:
	VMOVUPS Y0, (R10)(AX*1)
	ADDQ $32, AX
	JMP  biasCol

biasTail:
	TESTQ R11, R11
	JZ   biasNext
	VMASKMOVPS (R10)(AX*1), Y15, Y0
	VADDPS Y6, Y0, Y0
	TESTQ R9, R9
	JZ   biasTailStore
	VMAXPS Y7, Y0, Y0

biasTailStore:
	VMASKMOVPS Y0, Y15, (R10)(AX*1)

biasNext:
	ADDQ R8, BX
	ADDQ R11, BX
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

// func transposeLanes(dst, src []float32, ks, ds, rows, cols int)
//
// dst[r*ds+t] = src[t*ks+r] for r < rows &^ 7 and t < cols &^ 7, in 8 × 8
// blocks: eight loads of src rows, 24 shuffles, eight stores of dst rows.
TEXT ·transposeLanes(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ ks+48(FP), R8
	MOVQ ds+56(FP), R9
	MOVQ rows+64(FP), R10
	MOVQ cols+72(FP), R11
	SHLQ $2, R8 // src row stride in bytes
	SHLQ $2, R9 // dst row stride in bytes
	ANDQ $-8, R10
	ANDQ $-8, R11
	SHLQ $2, R10 // row bytes: the column offset into src rows
	SHLQ $2, R11 // column bytes: the offset into dst rows
	LEAQ (R8)(R8*2), R12 // 3 src rows
	LEAQ (R9)(R9*2), R13 // 3 dst rows
	XORQ AX, AX // r*4

transRows:
	CMPQ AX, R10
	JAE  transDone
	XORQ BX, BX // t*4
	MOVQ SI, CX // &src[r]
	ADDQ AX, CX
	MOVQ AX, DX
	SHRQ $2, DX
	IMULQ R9, DX
	ADDQ DI, DX // &dst[r*ds]

transBlock:
	CMPQ BX, R11
	JAE  transNext
	VMOVUPS (CX), Y0
	VMOVUPS (CX)(R8*1), Y1
	VMOVUPS (CX)(R8*2), Y2
	VMOVUPS (CX)(R12*1), Y3
	LEAQ (CX)(R8*4), CX
	VMOVUPS (CX), Y4
	VMOVUPS (CX)(R8*1), Y5
	VMOVUPS (CX)(R8*2), Y6
	VMOVUPS (CX)(R12*1), Y7
	LEAQ (CX)(R8*4), CX
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xee, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xee, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xee, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xee, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	LEAQ (DX)(BX*1), R14
	VMOVUPS Y8, (R14)
	VMOVUPS Y9, (R14)(R9*1)
	VMOVUPS Y10, (R14)(R9*2)
	VMOVUPS Y11, (R14)(R13*1)
	LEAQ (R14)(R9*4), R14
	VMOVUPS Y12, (R14)
	VMOVUPS Y13, (R14)(R9*1)
	VMOVUPS Y14, (R14)(R9*2)
	VMOVUPS Y15, (R14)(R13*1)
	ADDQ $32, BX
	JMP  transBlock

transNext:
	ADDQ $32, AX
	JMP  transRows

transDone:
	VZEROUPPER
	RET
