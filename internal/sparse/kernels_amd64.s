#include "textflag.h"

// Every kernel walks rows i in its range and, inside a row, the columns as
// vectors of four while four remain, then a pair (X registers) when m&2 and
// a single column (scalar VEX ops) when m&1. R11 or DX holds m*8, the byte
// stride of a row, so bit 4 of it is m&2 and bit 3 is m&1.

// func batchSpMVAVX2(y, x []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int)
//
// Registers: R13 &y[i*m], SI &x[0], R8 rowPtr, R9 colIdx, R10 val, R11 m*8,
// R12 i, [DX, R14) the row's nonzeros, AX the column byte offset, BX the
// nonzero, CX &x[j*m]. Y0 accumulates from +0, Y1 holds a product.
TEXT ·batchSpMVAVX2(SB), NOSPLIT, $0-144
	MOVQ y_base+0(FP), R13
	MOVQ x_base+24(FP), SI
	MOVQ rowPtr_base+48(FP), R8
	MOVQ colIdx_base+72(FP), R9
	MOVQ val_base+96(FP), R10
	MOVQ m+120(FP), R11
	SHLQ $3, R11
	MOVQ lo+128(FP), R12
	MOVQ R12, AX
	IMULQ R11, AX
	ADDQ AX, R13

spmvRow:
	CMPQ R12, hi+136(FP)
	JGE  spmvDone
	MOVQ (R8)(R12*8), DX
	MOVQ 8(R8)(R12*8), R14
	XORQ AX, AX
	CMPQ R11, $32
	JLT  spmvPair

spmvVec:
	VXORPD Y0, Y0, Y0
	MOVQ   DX, BX
	CMPQ   BX, R14
	JGE    spmvVecStore

spmvVecNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VBROADCASTSD (R10)(BX*8), Y1
	VMULPD (CX)(AX*1), Y1, Y1
	VADDPD Y1, Y0, Y0
	INCQ  BX
	CMPQ  BX, R14
	JLT   spmvVecNZ

spmvVecStore:
	VMOVUPD Y0, (R13)(AX*1)
	ADDQ $32, AX
	LEAQ 32(AX), CX
	CMPQ CX, R11
	JLE  spmvVec

spmvPair:
	TESTQ  $16, R11
	JZ     spmvOne
	VXORPD X0, X0, X0
	MOVQ   DX, BX
	CMPQ   BX, R14
	JGE    spmvPairStore

spmvPairNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VMOVDDUP (R10)(BX*8), X1
	VMULPD (CX)(AX*1), X1, X1
	VADDPD X1, X0, X0
	INCQ  BX
	CMPQ  BX, R14
	JLT   spmvPairNZ

spmvPairStore:
	VMOVUPD X0, (R13)(AX*1)
	ADDQ $16, AX

spmvOne:
	TESTQ  $8, R11
	JZ     spmvNext
	VXORPD X0, X0, X0
	MOVQ   DX, BX
	CMPQ   BX, R14
	JGE    spmvOneStore

spmvOneNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VMOVSD (R10)(BX*8), X1
	VMULSD (CX)(AX*1), X1, X1
	VADDSD X1, X0, X0
	INCQ  BX
	CMPQ  BX, R14
	JLT   spmvOneNZ

spmvOneStore:
	VMOVSD X0, (R13)(AX*1)

spmvNext:
	ADDQ R11, R13
	INCQ R12
	JMP  spmvRow

spmvDone:
	VZEROUPPER
	RET

// func icForwardAVX2(z, r []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int)
//
// Registers: SI &z[0], DI &r[i*m], R13 &z[i*m], R8 rowPtr, R9 colIdx,
// R10 val, R11 m*8, R12 i, [DX, R14) the row's off-diagonal nonzeros with
// the diagonal at R14, AX the column byte offset, BX the nonzero, CX
// &z[j*m]. Y0 accumulates from r, Y1 holds a product, Y7 the diagonal.
TEXT ·icForwardAVX2(SB), NOSPLIT, $0-144
	MOVQ z_base+0(FP), SI
	MOVQ r_base+24(FP), DI
	MOVQ rowPtr_base+48(FP), R8
	MOVQ colIdx_base+72(FP), R9
	MOVQ val_base+96(FP), R10
	MOVQ m+120(FP), R11
	SHLQ $3, R11
	MOVQ lo+128(FP), R12
	MOVQ R12, R13
	IMULQ R11, R13
	ADDQ R13, DI
	ADDQ SI, R13

fwdRow:
	CMPQ R12, hi+136(FP)
	JGE  fwdDone
	MOVQ (R8)(R12*8), DX
	MOVQ 8(R8)(R12*8), R14
	DECQ R14
	VBROADCASTSD (R10)(R14*8), Y7
	XORQ AX, AX
	CMPQ R11, $32
	JLT  fwdPair

fwdVec:
	VMOVUPD (DI)(AX*1), Y0
	MOVQ    DX, BX
	CMPQ    BX, R14
	JGE     fwdVecDiv

fwdVecNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VBROADCASTSD (R10)(BX*8), Y1
	VMULPD (CX)(AX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	INCQ  BX
	CMPQ  BX, R14
	JLT   fwdVecNZ

fwdVecDiv:
	VDIVPD  Y7, Y0, Y0
	VMOVUPD Y0, (R13)(AX*1)
	ADDQ $32, AX
	LEAQ 32(AX), CX
	CMPQ CX, R11
	JLE  fwdVec

fwdPair:
	TESTQ   $16, R11
	JZ      fwdOne
	VMOVUPD (DI)(AX*1), X0
	MOVQ    DX, BX
	CMPQ    BX, R14
	JGE     fwdPairDiv

fwdPairNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VMOVDDUP (R10)(BX*8), X1
	VMULPD (CX)(AX*1), X1, X1
	VSUBPD X1, X0, X0
	INCQ  BX
	CMPQ  BX, R14
	JLT   fwdPairNZ

fwdPairDiv:
	VDIVPD  X7, X0, X0
	VMOVUPD X0, (R13)(AX*1)
	ADDQ $16, AX

fwdOne:
	TESTQ  $8, R11
	JZ     fwdNext
	VMOVSD (DI)(AX*1), X0
	MOVQ   DX, BX
	CMPQ   BX, R14
	JGE    fwdOneDiv

fwdOneNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VMOVSD (R10)(BX*8), X1
	VMULSD (CX)(AX*1), X1, X1
	VSUBSD X1, X0, X0
	INCQ  BX
	CMPQ  BX, R14
	JLT   fwdOneNZ

fwdOneDiv:
	VDIVSD X7, X0, X0
	VMOVSD X0, (R13)(AX*1)

fwdNext:
	ADDQ R11, DI
	ADDQ R11, R13
	INCQ R12
	JMP  fwdRow

fwdDone:
	VZEROUPPER
	RET

// func icBackwardAVX2(z []float64, rowPtr, colIdx []int, val []float64, m, lo, hi int)
//
// icForwardAVX2's registers, rows from hi-1 down to lo, with the diagonal
// first in each row: [DX, R14) are the nonzeros after it, and Y0
// accumulates from z's own row.
TEXT ·icBackwardAVX2(SB), NOSPLIT, $0-120
	MOVQ z_base+0(FP), SI
	MOVQ rowPtr_base+24(FP), R8
	MOVQ colIdx_base+48(FP), R9
	MOVQ val_base+72(FP), R10
	MOVQ m+96(FP), R11
	SHLQ $3, R11
	MOVQ hi+112(FP), R12
	DECQ R12
	MOVQ R12, R13
	IMULQ R11, R13
	ADDQ SI, R13

bwdRow:
	CMPQ R12, lo+104(FP)
	JLT  bwdDone
	MOVQ (R8)(R12*8), DX
	VBROADCASTSD (R10)(DX*8), Y7
	INCQ DX
	MOVQ 8(R8)(R12*8), R14
	XORQ AX, AX
	CMPQ R11, $32
	JLT  bwdPair

bwdVec:
	VMOVUPD (R13)(AX*1), Y0
	MOVQ    DX, BX
	CMPQ    BX, R14
	JGE     bwdVecDiv

bwdVecNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VBROADCASTSD (R10)(BX*8), Y1
	VMULPD (CX)(AX*1), Y1, Y1
	VSUBPD Y1, Y0, Y0
	INCQ  BX
	CMPQ  BX, R14
	JLT   bwdVecNZ

bwdVecDiv:
	VDIVPD  Y7, Y0, Y0
	VMOVUPD Y0, (R13)(AX*1)
	ADDQ $32, AX
	LEAQ 32(AX), CX
	CMPQ CX, R11
	JLE  bwdVec

bwdPair:
	TESTQ   $16, R11
	JZ      bwdOne
	VMOVUPD (R13)(AX*1), X0
	MOVQ    DX, BX
	CMPQ    BX, R14
	JGE     bwdPairDiv

bwdPairNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VMOVDDUP (R10)(BX*8), X1
	VMULPD (CX)(AX*1), X1, X1
	VSUBPD X1, X0, X0
	INCQ  BX
	CMPQ  BX, R14
	JLT   bwdPairNZ

bwdPairDiv:
	VDIVPD  X7, X0, X0
	VMOVUPD X0, (R13)(AX*1)
	ADDQ $16, AX

bwdOne:
	TESTQ  $8, R11
	JZ     bwdNext
	VMOVSD (R13)(AX*1), X0
	MOVQ   DX, BX
	CMPQ   BX, R14
	JGE    bwdOneDiv

bwdOneNZ:
	MOVQ  (R9)(BX*8), CX
	IMULQ R11, CX
	ADDQ  SI, CX
	VMOVSD (R10)(BX*8), X1
	VMULSD (CX)(AX*1), X1, X1
	VSUBSD X1, X0, X0
	INCQ  BX
	CMPQ  BX, R14
	JLT   bwdOneNZ

bwdOneDiv:
	VDIVSD X7, X0, X0
	VMOVSD X0, (R13)(AX*1)

bwdNext:
	SUBQ R11, R13
	DECQ R12
	JMP  bwdRow

bwdDone:
	VZEROUPPER
	RET

// func batchDotAVX2(sums, x, y []float64, m, n, lo, hi int)
//
// Reduction block b covers rows [4096*b, min(4096*b+4096, n)), the
// package's dotBlock. Its columns run in groups of at most 16: Y0-Y3
// accumulate the group's vectors, X4 the pair and X5 the single column
// after them (the last group only), all from +0 across the block's rows.
//
// Registers: DI &sums[b*m], SI &x[0], R11 &y[0]-&x[0], R8 m*8, R9 b, R13
// the group's byte offset in a row, R14 its vector bytes (0-128), AX its
// tail bytes (m*8 & 24 in the last group, else 0), CX the single column's
// byte offset in the group, R10 &x[i*m] plus R13, R12 the rows left, BX
// scratch, Y8 a product.
TEXT ·batchDotAVX2(SB), NOSPLIT, $0-104
	MOVQ sums_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), R11
	SUBQ SI, R11
	MOVQ m+72(FP), R8
	SHLQ $3, R8
	MOVQ lo+88(FP), R9
	MOVQ R9, AX
	IMULQ R8, AX
	ADDQ AX, DI

dotBlockLoop:
	CMPQ R9, hi+96(FP)
	JGE  dotDone
	XORQ R13, R13

dotGroup:
	MOVQ R8, R14
	SUBQ R13, R14
	XORQ AX, AX
	CMPQ R14, $128
	JGE  dotFull
	MOVQ R14, AX
	ANDQ $24, AX
	ANDQ $-32, R14
	JMP  dotGroupSet

dotFull:
	MOVQ $128, R14

dotGroupSet:
	MOVQ AX, CX
	ANDQ $16, CX
	ADDQ R14, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	MOVQ R9, R12
	SHLQ $12, R12
	MOVQ n+80(FP), BX
	SUBQ R12, BX
	CMPQ BX, $4096
	JLE  dotRowsSet
	MOVQ $4096, BX

dotRowsSet:
	IMULQ R8, R12
	LEAQ  (SI)(R12*1), R10
	ADDQ  R13, R10
	MOVQ  BX, R12
	TESTQ R12, R12
	JLE   dotStore

dotRow:
	CMPQ R14, $64
	JLT  dotLt2
	JEQ  dotV2
	CMPQ R14, $96
	JEQ  dotV3
	VMOVUPD 96(R10), Y8
	VMULPD  96(R10)(R11*1), Y8, Y8
	VADDPD  Y8, Y3, Y3

dotV3:
	VMOVUPD 64(R10), Y8
	VMULPD  64(R10)(R11*1), Y8, Y8
	VADDPD  Y8, Y2, Y2

dotV2:
	VMOVUPD 32(R10), Y8
	VMULPD  32(R10)(R11*1), Y8, Y8
	VADDPD  Y8, Y1, Y1

dotV1:
	VMOVUPD (R10), Y8
	VMULPD  (R10)(R11*1), Y8, Y8
	VADDPD  Y8, Y0, Y0
	JMP     dotTail

dotLt2:
	TESTQ R14, R14
	JNZ   dotV1

dotTail:
	TESTQ $16, AX
	JZ    dotTailOne
	LEAQ  (R10)(R14*1), BX
	VMOVUPD (BX), X8
	VMULPD  (BX)(R11*1), X8, X8
	VADDPD  X8, X4, X4

dotTailOne:
	TESTQ $8, AX
	JZ    dotRowNext
	LEAQ  (R10)(CX*1), BX
	VMOVSD (BX), X8
	VMULSD (BX)(R11*1), X8, X8
	VADDSD X8, X5, X5

dotRowNext:
	ADDQ R8, R10
	DECQ R12
	JNZ  dotRow

dotStore:
	LEAQ (DI)(R13*1), BX
	CMPQ R14, $64
	JLT  dotStoreLt2
	JEQ  dotStore2
	CMPQ R14, $96
	JEQ  dotStore3
	VMOVUPD Y3, 96(BX)

dotStore3:
	VMOVUPD Y2, 64(BX)

dotStore2:
	VMOVUPD Y1, 32(BX)

dotStore1:
	VMOVUPD Y0, (BX)
	JMP     dotStoreTail

dotStoreLt2:
	TESTQ R14, R14
	JNZ   dotStore1

dotStoreTail:
	TESTQ $16, AX
	JZ    dotStoreOne
	VMOVUPD X4, (BX)(R14*1)

dotStoreOne:
	TESTQ $8, AX
	JZ    dotGroupNext
	VMOVSD X5, (BX)(CX*1)

dotGroupNext:
	ADDQ $128, R13
	CMPQ R13, R8
	JLT  dotGroup
	ADDQ R8, DI
	INCQ R9
	JMP  dotBlockLoop

dotDone:
	VZEROUPPER
	RET

// func batchAxpy2AVX2(x, z, y, w, sc []float64, mask []uint64, m, lo, hi int)
//
// Registers: R8 x, R9 z, R10 y, R11 w, R12 sc, R13 mask, DX m*8, DI the
// row's byte offset, R14 the rows left, BX the column byte offset, AX
// DI+BX. Y6 holds sc, Y7 the mask; VBLENDVPD takes the updated value where
// the mask's sign bit is set and the old one elsewhere.
TEXT ·batchAxpy2AVX2(SB), NOSPLIT, $0-168
	MOVQ x_base+0(FP), R8
	MOVQ z_base+24(FP), R9
	MOVQ y_base+48(FP), R10
	MOVQ w_base+72(FP), R11
	MOVQ sc_base+96(FP), R12
	MOVQ mask_base+120(FP), R13
	MOVQ m+144(FP), DX
	SHLQ $3, DX
	MOVQ lo+152(FP), DI
	MOVQ hi+160(FP), R14
	SUBQ DI, R14
	IMULQ DX, DI
	TESTQ R14, R14
	JLE   axDone

axRow:
	XORQ BX, BX
	CMPQ DX, $32
	JLT  axPair

axVec:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD (R12)(BX*1), Y6
	VMOVUPD (R13)(BX*1), Y7
	VMOVUPD (R8)(AX*1), Y0
	VMULPD  (R9)(AX*1), Y6, Y1
	VADDPD  Y1, Y0, Y1
	VBLENDVPD Y7, Y1, Y0, Y0
	VMOVUPD Y0, (R8)(AX*1)
	VMOVUPD (R10)(AX*1), Y2
	VMULPD  (R11)(AX*1), Y6, Y3
	VSUBPD  Y3, Y2, Y3
	VBLENDVPD Y7, Y3, Y2, Y2
	VMOVUPD Y2, (R10)(AX*1)
	ADDQ $32, BX
	LEAQ 32(BX), CX
	CMPQ CX, DX
	JLE  axVec

axPair:
	TESTQ   $16, DX
	JZ      axOne
	LEAQ    (DI)(BX*1), AX
	VMOVUPD (R12)(BX*1), X6
	VMOVUPD (R13)(BX*1), X7
	VMOVUPD (R8)(AX*1), X0
	VMULPD  (R9)(AX*1), X6, X1
	VADDPD  X1, X0, X1
	VBLENDVPD X7, X1, X0, X0
	VMOVUPD X0, (R8)(AX*1)
	VMOVUPD (R10)(AX*1), X2
	VMULPD  (R11)(AX*1), X6, X3
	VSUBPD  X3, X2, X3
	VBLENDVPD X7, X3, X2, X2
	VMOVUPD X2, (R10)(AX*1)
	ADDQ $16, BX

axOne:
	TESTQ  $8, DX
	JZ     axNext
	LEAQ   (DI)(BX*1), AX
	VMOVSD (R12)(BX*1), X6
	VMOVSD (R13)(BX*1), X7
	VMOVSD (R8)(AX*1), X0
	VMULSD (R9)(AX*1), X6, X1
	VADDSD X1, X0, X1
	VBLENDVPD X7, X1, X0, X0
	VMOVSD X0, (R8)(AX*1)
	VMOVSD (R10)(AX*1), X2
	VMULSD (R11)(AX*1), X6, X3
	VSUBSD X3, X2, X3
	VBLENDVPD X7, X3, X2, X2
	VMOVSD X2, (R10)(AX*1)

axNext:
	ADDQ DX, DI
	DECQ R14
	JNZ  axRow

axDone:
	VZEROUPPER
	RET

// func batchXpBYAVX2(x, y, sc []float64, mask []uint64, m, lo, hi int)
//
// batchAxpy2AVX2's registers with R8 x, R9 y, R12 sc and R13 mask:
// x = y + sc·x, blended under the mask.
TEXT ·batchXpBYAVX2(SB), NOSPLIT, $0-120
	MOVQ x_base+0(FP), R8
	MOVQ y_base+24(FP), R9
	MOVQ sc_base+48(FP), R12
	MOVQ mask_base+72(FP), R13
	MOVQ m+96(FP), DX
	SHLQ $3, DX
	MOVQ lo+104(FP), DI
	MOVQ hi+112(FP), R14
	SUBQ DI, R14
	IMULQ DX, DI
	TESTQ R14, R14
	JLE   xpDone

xpRow:
	XORQ BX, BX
	CMPQ DX, $32
	JLT  xpPair

xpVec:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD (R12)(BX*1), Y6
	VMOVUPD (R13)(BX*1), Y7
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD (R9)(AX*1), Y2
	VMULPD  Y0, Y6, Y1
	VADDPD  Y1, Y2, Y1
	VBLENDVPD Y7, Y1, Y0, Y0
	VMOVUPD Y0, (R8)(AX*1)
	ADDQ $32, BX
	LEAQ 32(BX), CX
	CMPQ CX, DX
	JLE  xpVec

xpPair:
	TESTQ   $16, DX
	JZ      xpOne
	LEAQ    (DI)(BX*1), AX
	VMOVUPD (R12)(BX*1), X6
	VMOVUPD (R13)(BX*1), X7
	VMOVUPD (R8)(AX*1), X0
	VMOVUPD (R9)(AX*1), X2
	VMULPD  X0, X6, X1
	VADDPD  X1, X2, X1
	VBLENDVPD X7, X1, X0, X0
	VMOVUPD X0, (R8)(AX*1)
	ADDQ $16, BX

xpOne:
	TESTQ  $8, DX
	JZ     xpNext
	LEAQ   (DI)(BX*1), AX
	VMOVSD (R12)(BX*1), X6
	VMOVSD (R13)(BX*1), X7
	VMOVSD (R8)(AX*1), X0
	VMOVSD (R9)(AX*1), X2
	VMULSD X0, X6, X1
	VADDSD X1, X2, X1
	VBLENDVPD X7, X1, X0, X0
	VMOVSD X0, (R8)(AX*1)

xpNext:
	ADDQ DX, DI
	DECQ R14
	JNZ  xpRow

xpDone:
	VZEROUPPER
	RET

// func batchSubAVX2(x, y []float64, m, lo, hi int)
//
// Elements [lo*m, hi*m) are contiguous: four at a time, then one at a
// time. Registers: DI &x[lo*m], SI &y[lo*m], CX the element count, BX the
// element, AX scratch.
TEXT ·batchSubAVX2(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), DI
	MOVQ y_base+24(FP), SI
	MOVQ m+48(FP), DX
	MOVQ lo+56(FP), AX
	MOVQ hi+64(FP), CX
	IMULQ DX, AX
	IMULQ DX, CX
	SUBQ AX, CX
	LEAQ (DI)(AX*8), DI
	LEAQ (SI)(AX*8), SI
	XORQ BX, BX
	CMPQ CX, $4
	JLT  subOne

subVec:
	VMOVUPD (SI)(BX*8), Y0
	VSUBPD  (DI)(BX*8), Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ $4, BX
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JLE  subVec

subOne:
	CMPQ BX, CX
	JGE  subDone
	VMOVSD (SI)(BX*8), X0
	VSUBSD (DI)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ BX
	JMP  subOne

subDone:
	VZEROUPPER
	RET
