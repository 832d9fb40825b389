#include "textflag.h"

// func applyQT4AVX2(v, tau, w []float64)
//
// Registers: SI v, DX tau, CX len(tau), DI w, R8 m, R10 the reflector r,
// R11 its tail v[r][r+1:], R12 the tail's length, R13 &w[4r], AX the tail
// index. Y8 is tau[r] and Y0 the four dot products s, Y9 the sign mask.
TEXT ·applyQT4AVX2(SB), NOSPLIT, $0-72
	MOVQ v_base+0(FP), SI
	MOVQ tau_base+24(FP), DX
	MOVQ tau_len+32(FP), CX
	MOVQ w_base+48(FP), DI
	MOVQ w_len+56(FP), R8
	SHRQ $2, R8
	MOVQ $0x8000000000000000, AX
	MOVQ AX, X9
	VBROADCASTSD X9, Y9
	XORQ R10, R10

reflector:
	CMPQ R10, CX
	JGE  done
	// tau == ±0: the column needed no reflector.
	MOVQ (DX)(R10*8), AX
	SHLQ $1, AX
	JE   next
	VBROADCASTSD (DX)(R10*8), Y8
	MOVQ  R10, R11
	IMULQ R8, R11
	ADDQ  R10, R11
	LEAQ  8(SI)(R11*8), R11
	MOVQ  R8, R12
	SUBQ  R10, R12
	DECQ  R12
	MOVQ  R10, R13
	SHLQ  $5, R13
	ADDQ  DI, R13

	// s = tau·b[r] + Σ v_i·t_i over the nonzero v_i, in index order.
	VMOVUPD (R13), Y1
	VMULPD  Y1, Y8, Y0
	XORQ    AX, AX

dot:
	CMPQ AX, R12
	JGE  dotDone
	MOVQ (R11)(AX*8), BX
	SHLQ $1, BX
	JE   dotSkip
	VBROADCASTSD (R11)(AX*8), Y2
	MOVQ   AX, BX
	SHLQ   $5, BX
	VMULPD 32(R13)(BX*1), Y2, Y3
	VADDPD Y3, Y0, Y0

dotSkip:
	INCQ AX
	JMP  dot

	// s = −s/tau; b[r] += s·tau; t_i += s·v_i over the nonzero v_i.
dotDone:
	VXORPD  Y9, Y0, Y0
	VDIVPD  Y8, Y0, Y0
	VMULPD  Y8, Y0, Y3
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y1, (R13)
	XORQ    AX, AX

update:
	CMPQ AX, R12
	JGE  next
	MOVQ (R11)(AX*8), BX
	SHLQ $1, BX
	JE   updateSkip
	VBROADCASTSD (R11)(AX*8), Y2
	MOVQ    AX, BX
	SHLQ    $5, BX
	VMULPD  Y2, Y0, Y3
	VMOVUPD 32(R13)(BX*1), Y4
	VADDPD  Y3, Y4, Y4
	VMOVUPD Y4, 32(R13)(BX*1)

updateSkip:
	INCQ AX
	JMP  update

next:
	INCQ R10
	JMP  reflector

done:
	VZEROUPPER
	RET
