#include "textflag.h"

// Four lanes of roundBF16Portable in SSE2 integer instructions, on the
// float32 bits b of each value: rounded = (b + 0x7fff + (b>>16 & 1)) with
// the low half cleared, a 32-bit add that wraps as the Go one does; a NaN
// lane (|b| > 0x7f800000, a signed compare, as |b| < 2^31) takes
// EncodeBF16's quiet NaN instead, (b | 0x00400000) with the low half
// cleared, through a mask blend.

DATA bf16c<>+0(SB)/8, $0x7fffffff7fffffff // |·|
DATA bf16c<>+8(SB)/8, $0x7fffffff7fffffff
DATA bf16c<>+16(SB)/8, $0x7f8000007f800000 // +Inf
DATA bf16c<>+24(SB)/8, $0x7f8000007f800000
DATA bf16c<>+32(SB)/8, $0x0040000000400000 // BF16's quiet bit
DATA bf16c<>+40(SB)/8, $0x0040000000400000
DATA bf16c<>+48(SB)/8, $0xffff0000ffff0000 // the high half
DATA bf16c<>+56(SB)/8, $0xffff0000ffff0000
DATA bf16c<>+64(SB)/8, $0x0000000100000001
DATA bf16c<>+72(SB)/8, $0x0000000100000001
DATA bf16c<>+80(SB)/8, $0x00007fff00007fff
DATA bf16c<>+88(SB)/8, $0x00007fff00007fff
GLOBL bf16c<>(SB), RODATA|NOPTR, $96

// func roundBF16SSE2(vals []float32) (n int)
// Rounds vals[:n] in place, n the largest multiple of four within
// len(vals), and returns n.
//
// Registers: SI vals, CX n, AX i; X0 b and then the result, X1 rounded,
// X2 the NaN mask; constants X8–X13 in bf16c's order.
TEXT ·roundBF16SSE2(SB), NOSPLIT, $0-32
	MOVQ  vals_base+0(FP), SI
	MOVQ  vals_len+8(FP), CX
	ANDQ  $~3, CX
	MOVOU bf16c<>+0(SB), X8
	MOVOU bf16c<>+16(SB), X9
	MOVOU bf16c<>+32(SB), X10
	MOVOU bf16c<>+48(SB), X11
	MOVOU bf16c<>+64(SB), X12
	MOVOU bf16c<>+80(SB), X13
	XORQ  AX, AX

block:
	CMPQ    AX, CX
	JGE     done
	MOVOU   (SI)(AX*4), X0
	MOVO    X0, X1
	PSRLL   $16, X1
	PAND    X12, X1
	PADDL   X13, X1
	PADDL   X0, X1
	PAND    X11, X1
	MOVO    X0, X2
	PAND    X8, X2
	PCMPGTL X9, X2
	POR     X10, X0
	PAND    X11, X0
	PAND    X2, X0
	PANDN   X1, X2
	POR     X2, X0
	MOVOU   X0, (SI)(AX*4)
	ADDQ    $4, AX
	JMP     block

done:
	MOVQ CX, n+24(FP)
	RET
