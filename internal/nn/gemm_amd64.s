#include "textflag.h"

// func accumRows4SSE(y, r0, r1, r2, r3 *float32, n int, x0, x1, x2, x3 float32)
//
// y[j] = (((y[j] + x0*r0[j]) + x1*r1[j]) + x2*r2[j]) + x3*r3[j] for j < n,
// four columns per step while at least four remain, then one at a time.
// No FMA: each product is rounded before its add, as in the Go loop.
TEXT ·accumRows4SSE(SB), NOSPLIT, $0-64
	MOVQ   y+0(FP), DI
	MOVQ   r0+8(FP), SI
	MOVQ   r1+16(FP), R8
	MOVQ   r2+24(FP), R9
	MOVQ   r3+32(FP), R10
	MOVQ   n+40(FP), CX
	MOVSS  x0+48(FP), X0
	SHUFPS $0, X0, X0
	MOVSS  x1+52(FP), X1
	SHUFPS $0, X1, X1
	MOVSS  x2+56(FP), X2
	SHUFPS $0, X2, X2
	MOVSS  x3+60(FP), X3
	SHUFPS $0, X3, X3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX
	JZ     tail

loop4:
	MOVUPS (DI)(AX*4), X4
	MOVUPS (SI)(AX*4), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS (R8)(AX*4), X6
	MULPS  X1, X6
	ADDPS  X6, X4
	MOVUPS (R9)(AX*4), X7
	MULPS  X2, X7
	ADDPS  X7, X4
	MOVUPS (R10)(AX*4), X8
	MULPS  X3, X8
	ADDPS  X8, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX
	CMPQ   AX, DX
	JLT    loop4

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	MOVSS (DI)(AX*4), X4
	MOVSS (SI)(AX*4), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS (R8)(AX*4), X6
	MULSS X1, X6
	ADDSS X6, X4
	MOVSS (R9)(AX*4), X7
	MULSS X2, X7
	ADDSS X7, X4
	MOVSS (R10)(AX*4), X8
	MULSS X3, X8
	ADDSS X8, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	CMPQ  AX, CX
	JLT   loop1

done:
	RET
