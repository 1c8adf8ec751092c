#include "textflag.h"

// The AVX row kernel: out[c] = Σ_p x[p]·w[p·stride+c] for c < len(out),
// vectorised ACROSS output columns. Each YMM lane owns one output column
// and runs exactly the portable kernel's per-element sequence — start at
// +0, p ascending, x[p] == ±0 skipped, one IEEE-754 multiply (VMULPS)
// then one add (VADDPS), never an FMA and never a reassociated sum — so
// every element is bit-identical to rowKernelPortable's.
//
// A continued call (cont) starts each lane at the value out holds instead
// of +0. Both cases are one instruction: an accumulator starts as out's
// bits ANDed with Y13, all ones when continuing and all zeros — giving
// +0 whatever out held — when not.
//
// Registers: DI out, BX cols, SI x, CX k, DX w, R8 stride in bytes,
// R9 first column of the current tile, R10 &w[p·stride+R9], R11 p,
// R13 &out[R9]. Y0-Y7 accumulators, Y8 broadcast x[p], Y9-Y12 products,
// Y13 the start mask.

// MULADD accumulates x[p]·w[p·stride+R9+off/4 ...+8) into acc. w is loaded
// into a register so it is the multiply's FIRST source and the running sum
// is the add's first source: when both operands are NaN x86 returns the
// first, and this is the operand order the compiler gives the portable
// kernel in a normal build, so even NaN payloads agree there.
#define MULADD(off, acc, tmp) \
	VMOVUPS off(R10), tmp; \
	VMULPS  Y8, tmp, tmp;  \
	VADDPS  tmp, acc, acc

// SKIPZERO jumps to label when x[p] is ±0, as an integer test (bits<<1 == 0)
// so that NaN is not skipped; otherwise it broadcasts x[p] into Y8.
#define SKIPZERO(label) \
	MOVL (SI)(R11*4), AX; \
	ADDL AX, AX;          \
	JZ   label;           \
	VBROADCASTSS (SI)(R11*4), Y8

// NEXTP steps to the next input and loops while p < k.
#define NEXTP(loop) \
	ADDQ R8, R10; \
	INCQ R11;     \
	CMPQ R11, CX; \
	JLT  loop

// START starts acc for the eight columns at off(R13).
#define START(off, acc) \
	VANDPS off(R13), Y13, acc

// func rowKernelAVX(out, x, w []float32, stride int, cont bool)
// Requires len(out) >= 8 (the ragged last tile is recomputed over the final
// eight columns), with cont len(out) a multiple of 8 (recomputing would
// continue the overlapped columns twice), and len(w) >=
// (len(x)-1)·stride+len(out); the Go wrapper sees to all three.
TEXT ·rowKernelAVX(SB), NOSPLIT, $8-81
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), BX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ w_base+48(FP), DX
	MOVQ stride+72(FP), R8
	SHLQ $2, R8
	MOVBLZX cont+80(FP), AX
	NEGL AX
	MOVL AX, mask-8(SP)
	VBROADCASTSS mask-8(SP), Y13
	XORQ R9, R9
	CMPQ BX, $8
	JLT  done

tile64:
	LEAQ 64(R9), AX
	CMPQ AX, BX
	JGT  tile32
	LEAQ (DI)(R9*4), R13
	START(0, Y0)
	START(32, Y1)
	START(64, Y2)
	START(96, Y3)
	START(128, Y4)
	START(160, Y5)
	START(192, Y6)
	START(224, Y7)
	LEAQ (DX)(R9*4), R10
	XORQ R11, R11
	TESTQ CX, CX
	JZ   store64
loop64:
	SKIPZERO(next64)
	MULADD(0, Y0, Y9)
	MULADD(32, Y1, Y10)
	MULADD(64, Y2, Y11)
	MULADD(96, Y3, Y12)
	MULADD(128, Y4, Y9)
	MULADD(160, Y5, Y10)
	MULADD(192, Y6, Y11)
	MULADD(224, Y7, Y12)
next64:
	NEXTP(loop64)
store64:
	VMOVUPS Y0, (R13)
	VMOVUPS Y1, 32(R13)
	VMOVUPS Y2, 64(R13)
	VMOVUPS Y3, 96(R13)
	VMOVUPS Y4, 128(R13)
	VMOVUPS Y5, 160(R13)
	VMOVUPS Y6, 192(R13)
	VMOVUPS Y7, 224(R13)
	ADDQ $64, R9
	JMP  tile64

tile32:
	LEAQ 32(R9), AX
	CMPQ AX, BX
	JGT  tile16
	LEAQ (DI)(R9*4), R13
	START(0, Y0)
	START(32, Y1)
	START(64, Y2)
	START(96, Y3)
	LEAQ (DX)(R9*4), R10
	XORQ R11, R11
	TESTQ CX, CX
	JZ   store32
loop32:
	SKIPZERO(next32)
	MULADD(0, Y0, Y9)
	MULADD(32, Y1, Y10)
	MULADD(64, Y2, Y11)
	MULADD(96, Y3, Y12)
next32:
	NEXTP(loop32)
store32:
	VMOVUPS Y0, (R13)
	VMOVUPS Y1, 32(R13)
	VMOVUPS Y2, 64(R13)
	VMOVUPS Y3, 96(R13)
	ADDQ $32, R9

tile16:
	LEAQ 16(R9), AX
	CMPQ AX, BX
	JGT  tile8
	LEAQ (DI)(R9*4), R13
	START(0, Y0)
	START(32, Y1)
	LEAQ (DX)(R9*4), R10
	XORQ R11, R11
	TESTQ CX, CX
	JZ   store16
loop16:
	SKIPZERO(next16)
	MULADD(0, Y0, Y9)
	MULADD(32, Y1, Y10)
next16:
	NEXTP(loop16)
store16:
	VMOVUPS Y0, (R13)
	VMOVUPS Y1, 32(R13)
	ADDQ $16, R9

tile8:
	LEAQ 8(R9), AX
	CMPQ AX, BX
	JGT  ragged
body8:
	LEAQ (DI)(R9*4), R13
	START(0, Y0)
	LEAQ (DX)(R9*4), R10
	XORQ R11, R11
	TESTQ CX, CX
	JZ   store8
loop8:
	SKIPZERO(next8)
	MULADD(0, Y0, Y9)
next8:
	NEXTP(loop8)
store8:
	VMOVUPS Y0, (R13)
	ADDQ $8, R9
	JMP  tile8

ragged:
	// Fewer than eight columns left: recompute the final eight. The
	// overlap rewrites columns already stored with the same bits.
	CMPQ R9, BX
	JGE  done
	LEAQ -8(BX), R9
	JMP  body8

done:
	VZEROUPPER
	RET

// func cpuHasAVX() bool
// CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and XCR0[2:1] = 11:
// the OS saves and restores the YMM state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
noavx:
	RET
