#include "textflag.h"

// func fistaRowsAVX2(nd, norms, yd, gzd, zz, grad []float64, groups []zzGroup, k int, step float64)
//
// Registers: R8 m, R9 m rounded down to a multiple of 4, R12 zz, R13 grad,
// DI the row's byte offset, SI the row of y, R14 the group and CX the
// groups left, AX the element index, DX BX R10 R11 the ZZᵀ rows of a group
// (their column indices before that). Y0-Y3 hold a group's coefficients,
// Y15 step. A zzGroup is {n int; col [4]int}, 40 bytes.
TEXT ·fistaRowsAVX2(SB), NOSPLIT, $0-184
	MOVQ norms_len+32(FP), R8
	MOVQ R8, R9
	ANDQ $-4, R9
	MOVQ zz_base+96(FP), R12
	MOVQ grad_base+120(FP), R13
	VBROADCASTSD step+176(FP), Y15
	XORQ DI, DI

row:
	MOVQ  k+168(FP), AX
	IMULQ R8, AX
	SHLQ  $3, AX
	CMPQ  DI, AX
	JGE   done
	MOVQ  yd_base+48(FP), SI
	ADDQ  DI, SI

	// grad = 0
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

zeroVec:
	CMPQ    AX, R9
	JGE     zeroTail
	VMOVUPD Y0, (R13)(AX*8)
	ADDQ    $4, AX
	JMP     zeroVec

zeroTail:
	CMPQ AX, R8
	JGE  groups
	MOVQ $0, (R13)(AX*8)
	INCQ AX
	JMP  zeroTail

groups:
	MOVQ groups_base+144(FP), R14
	MOVQ groups_len+152(FP), CX

group:
	TESTQ CX, CX
	JE    gradStep

	// Skip the group when every coefficient is ±0: shifting out the sign
	// leaves zero bits exactly for ±0, never for a NaN.
	MOVQ 0(R14), R10
	MOVQ 8(R14), DX
	MOVQ (SI)(DX*8), AX
	SHLQ $1, AX
	CMPQ R10, $1
	JE   test
	MOVQ 16(R14), BX
	MOVQ (SI)(BX*8), R11
	SHLQ $1, R11
	ORQ  R11, AX
	CMPQ R10, $2
	JE   test
	MOVQ 24(R14), BX
	MOVQ (SI)(BX*8), R11
	SHLQ $1, R11
	ORQ  R11, AX
	CMPQ R10, $3
	JE   test
	MOVQ 32(R14), BX
	MOVQ (SI)(BX*8), R11
	SHLQ $1, R11
	ORQ  R11, AX

test:
	TESTQ AX, AX
	JE    nextGroup
	VBROADCASTSD (SI)(DX*8), Y0
	IMULQ R8, DX
	LEAQ  (R12)(DX*8), DX
	CMPQ  R10, $2
	JL    one
	JE    two
	CMPQ  R10, $3
	JE    three

	// Four columns: grad += ((a0·r0 + a1·r1) + a2·r2) + a3·r3.
	MOVQ  16(R14), BX
	VBROADCASTSD (SI)(BX*8), Y1
	IMULQ R8, BX
	LEAQ  (R12)(BX*8), BX
	MOVQ  24(R14), R10
	VBROADCASTSD (SI)(R10*8), Y2
	IMULQ R8, R10
	LEAQ  (R12)(R10*8), R10
	MOVQ  32(R14), R11
	VBROADCASTSD (SI)(R11*8), Y3
	IMULQ R8, R11
	LEAQ  (R12)(R11*8), R11
	XORQ  AX, AX

fourVec:
	CMPQ    AX, R9
	JGE     fourTail
	VMULPD  (DX)(AX*8), Y0, Y4
	VMULPD  (BX)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R13)(AX*8), Y6
	VADDPD  Y4, Y6, Y6
	VMOVUPD Y6, (R13)(AX*8)
	ADDQ    $4, AX
	JMP     fourVec

fourTail:
	CMPQ   AX, R8
	JGE    nextGroup
	VMULSD (DX)(AX*8), X0, X4
	VMULSD (BX)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD (R13)(AX*8), X6
	VADDSD X4, X6, X6
	VMOVSD X6, (R13)(AX*8)
	INCQ   AX
	JMP    fourTail

	// Three columns: grad += (a0·r0 + a1·r1) + a2·r2.
three:
	MOVQ  16(R14), BX
	VBROADCASTSD (SI)(BX*8), Y1
	IMULQ R8, BX
	LEAQ  (R12)(BX*8), BX
	MOVQ  24(R14), R10
	VBROADCASTSD (SI)(R10*8), Y2
	IMULQ R8, R10
	LEAQ  (R12)(R10*8), R10
	XORQ  AX, AX

threeVec:
	CMPQ    AX, R9
	JGE     threeTail
	VMULPD  (DX)(AX*8), Y0, Y4
	VMULPD  (BX)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R13)(AX*8), Y6
	VADDPD  Y4, Y6, Y6
	VMOVUPD Y6, (R13)(AX*8)
	ADDQ    $4, AX
	JMP     threeVec

threeTail:
	CMPQ   AX, R8
	JGE    nextGroup
	VMULSD (DX)(AX*8), X0, X4
	VMULSD (BX)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMOVSD (R13)(AX*8), X6
	VADDSD X4, X6, X6
	VMOVSD X6, (R13)(AX*8)
	INCQ   AX
	JMP    threeTail

	// Two columns: grad += a0·r0 + a1·r1.
two:
	MOVQ  16(R14), BX
	VBROADCASTSD (SI)(BX*8), Y1
	IMULQ R8, BX
	LEAQ  (R12)(BX*8), BX
	XORQ  AX, AX

twoVec:
	CMPQ    AX, R9
	JGE     twoTail
	VMULPD  (DX)(AX*8), Y0, Y4
	VMULPD  (BX)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R13)(AX*8), Y6
	VADDPD  Y4, Y6, Y6
	VMOVUPD Y6, (R13)(AX*8)
	ADDQ    $4, AX
	JMP     twoVec

twoTail:
	CMPQ   AX, R8
	JGE    nextGroup
	VMULSD (DX)(AX*8), X0, X4
	VMULSD (BX)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMOVSD (R13)(AX*8), X6
	VADDSD X4, X6, X6
	VMOVSD X6, (R13)(AX*8)
	INCQ   AX
	JMP    twoTail

	// One column: grad += a0·r0.
one:
	XORQ AX, AX

oneVec:
	CMPQ    AX, R9
	JGE     oneTail
	VMULPD  (DX)(AX*8), Y0, Y4
	VMOVUPD (R13)(AX*8), Y6
	VADDPD  Y4, Y6, Y6
	VMOVUPD Y6, (R13)(AX*8)
	ADDQ    $4, AX
	JMP     oneVec

oneTail:
	CMPQ   AX, R8
	JGE    nextGroup
	VMULSD (DX)(AX*8), X0, X4
	VMOVSD (R13)(AX*8), X6
	VADDSD X4, X6, X6
	VMOVSD X6, (R13)(AX*8)
	INCQ   AX
	JMP    oneTail

nextGroup:
	ADDQ $40, R14
	DECQ CX
	JMP  group

	// next = y − step·(grad − GZᵀ); norms += next².
gradStep:
	MOVQ nd_base+0(FP), DX
	ADDQ DI, DX
	MOVQ gzd_base+72(FP), BX
	ADDQ DI, BX
	MOVQ norms_base+24(FP), R10
	XORQ AX, AX

stepVec:
	CMPQ    AX, R9
	JGE     stepTail
	VMOVUPD (R13)(AX*8), Y4
	VSUBPD  (BX)(AX*8), Y4, Y4
	VMULPD  Y4, Y15, Y4
	VMOVUPD (SI)(AX*8), Y5
	VSUBPD  Y4, Y5, Y5
	VMOVUPD Y5, (DX)(AX*8)
	VMULPD  Y5, Y5, Y6
	VMOVUPD (R10)(AX*8), Y7
	VADDPD  Y6, Y7, Y7
	VMOVUPD Y7, (R10)(AX*8)
	ADDQ    $4, AX
	JMP     stepVec

stepTail:
	CMPQ   AX, R8
	JGE    nextRow
	VMOVSD (R13)(AX*8), X4
	VSUBSD (BX)(AX*8), X4, X4
	VMULSD X4, X15, X4
	VMOVSD (SI)(AX*8), X5
	VSUBSD X4, X5, X5
	VMOVSD X5, (DX)(AX*8)
	VMULSD X5, X5, X6
	VMOVSD (R10)(AX*8), X7
	VADDSD X6, X7, X7
	VMOVSD X7, (R10)(AX*8)
	INCQ   AX
	JMP    stepTail

nextRow:
	LEAQ (DI)(R8*8), DI
	JMP  row

done:
	VZEROUPPER
	RET

// func scaleRowsAVX2(data, scale []float64)
TEXT ·scaleRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ  data_base+0(FP), DI
	MOVQ  data_len+8(FP), CX
	MOVQ  scale_base+24(FP), SI
	MOVQ  scale_len+32(FP), R8
	MOVQ  R8, R9
	ANDQ  $-4, R9
	TESTQ R8, R8
	JE    scaleDone

scaleRow:
	CMPQ CX, R8
	JL   scaleDone
	XORQ AX, AX

scaleVec:
	CMPQ    AX, R9
	JGE     scaleTail
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     scaleVec

scaleTail:
	CMPQ   AX, R8
	JGE    scaleNext
	VMOVSD (DI)(AX*8), X0
	VMULSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    scaleTail

scaleNext:
	LEAQ (DI)(R8*8), DI
	SUBQ R8, CX
	JMP  scaleRow

scaleDone:
	VZEROUPPER
	RET

// func addScaledAVX2(y []float64, d float64, x []float64)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	VBROADCASTSD d+24(FP), Y0
	MOVQ x_base+32(FP), SI
	MOVQ x_len+40(FP), R8
	MOVQ R8, R9
	ANDQ $-4, R9
	XORQ AX, AX

addVec:
	CMPQ    AX, R9
	JGE     addTail
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     addVec

addTail:
	CMPQ   AX, R8
	JGE    addDone
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    addTail

addDone:
	VZEROUPPER
	RET
