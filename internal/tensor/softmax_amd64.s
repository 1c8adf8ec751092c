#include "textflag.h"

// SoftmaxRow's max and scale passes, eight float32 lanes at a time. Each
// lane runs the scalar loop's own step for the entries it holds: the max
// pass keeps VMAXPS(v, max) — the instruction returns its second operand
// unless the first is greater, so a NaN entry never wins and an equal one
// never replaces the earlier, exactly as `if v > maxv { maxv = v }` — and
// the scale pass multiplies each entry by the broadcast inverse (VMULPS),
// the one rounding of `row[i] * inv`.

DATA neginf<>+0(SB)/4, $0xff800000
GLOBL neginf<>(SB), RODATA|NOPTR, $4

// func maxLanesAVX(row []float32) float32
// Requires len(row) a positive multiple of 8. Returns the largest entry,
// -Inf when none is above it; among entries that compare equal (+0 and
// -0) it may return either, which the Go wrapper settles.
//
// Registers: SI row, CX len(row), R9 i, Y0 and Y1 the maxima of entries
// i ≡ 0..7 and 8..15 mod 16, Y2 and Y3 the entries.
TEXT ·maxLanesAVX(SB), NOSPLIT, $0-28
	MOVQ         row_base+0(FP), SI
	MOVQ         row_len+8(FP), CX
	VBROADCASTSS neginf<>(SB), Y0
	VMOVAPS      Y0, Y1
	XORQ         R9, R9

pair:
	LEAQ    16(R9), AX
	CMPQ    AX, CX
	JGT     last
	VMOVUPS (SI)(R9*4), Y2
	VMOVUPS 32(SI)(R9*4), Y3
	VMAXPS  Y0, Y2, Y0
	VMAXPS  Y1, Y3, Y1
	MOVQ    AX, R9
	JMP     pair

last:
	CMPQ    R9, CX
	JGE     reduce
	VMOVUPS (SI)(R9*4), Y2
	VMAXPS  Y0, Y2, Y0

reduce:
	VMAXPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VMOVHLPS     X0, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

// func scaleLanesAVX(row []float32, s float32)
// Requires len(row) a positive multiple of 8. Writes row[i] = row[i] * s.
TEXT ·scaleLanesAVX(SB), NOSPLIT, $0-28
	MOVQ         row_base+0(FP), SI
	MOVQ         row_len+8(FP), CX
	VBROADCASTSS s+24(FP), Y1
	XORQ         R9, R9

scale:
	VMOVUPS (SI)(R9*4), Y0
	VMULPS  Y1, Y0, Y0
	VMOVUPS Y0, (SI)(R9*4)
	ADDQ    $8, R9
	CMPQ    R9, CX
	JLT     scale
	VZEROUPPER
	RET
