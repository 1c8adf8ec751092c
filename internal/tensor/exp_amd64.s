#include "textflag.h"

// Four lanes of math.Exp: each YMM lane executes exactly the instruction
// sequence of math.Exp's amd64 assembly ($GOROOT/src/math/exp_amd64.s,
// Shibata's method) on its normal path — n = round(x·log2e); x -= n·ln2
// in two halves; x /= 16; a degree-8 Taylor polynomial; four squarings
// of (1 + x); times 2^n — in its FMA branch or its MULSD/SUBSD branch,
// the one math.Exp takes on this CPU. Only the lanes' arguments must stay
// on that path: |x| < 708 keeps n in [-1021, 1021], so 2^n is a normal
// number and none of archExp's overflow, denormal or non-finite exits is
// reached. The callers send every other argument to math.Exp itself.

// The constants are math's, spelled as its source spells them.
DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920        // log2(e)
DATA expc<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // upper half ln2
DATA expc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // lower half ln2
DATA expc<>+24(SB)/8, $0.0625
DATA expc<>+32(SB)/8, $2.4801587301587301587e-5
DATA expc<>+40(SB)/8, $1.9841269841269841270e-4
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3
DATA expc<>+56(SB)/8, $8.3333333333333333333e-3
DATA expc<>+64(SB)/8, $4.1666666666666666667e-2
DATA expc<>+72(SB)/8, $1.6666666666666666667e-1
DATA expc<>+80(SB)/8, $0.5
DATA expc<>+88(SB)/8, $1.0
DATA expc<>+96(SB)/8, $2.0
DATA expc<>+104(SB)/8, $708.0
DATA expc<>+112(SB)/8, $0x7fffffffffffffff
DATA expc<>+120(SB)/4, $0x3ff
DATA expc<>+128(SB)/8, $0x8000000000000000
GLOBL expc<>(SB), RODATA|NOPTR, $136

// Registers: Y0 x and then the result, Y1 n as float64, Y2 the
// polynomial, Y3 a broadcast coefficient, X4 n as int32 and Y4 2^n;
// constants Y6 1/16, Y7 log2e, Y8 1.0, Y9 2.0, Y10 ln2 lower, Y11 ln2 upper.

// EXPCONSTS broadcasts the constants the lanes hold in registers.
#define EXPCONSTS \
	VBROADCASTSD expc<>+24(SB), Y6; \
	VBROADCASTSD expc<>+0(SB), Y7;  \
	VBROADCASTSD expc<>+88(SB), Y8; \
	VBROADCASTSD expc<>+96(SB), Y9; \
	VBROADCASTSD expc<>+16(SB), Y10; \
	VBROADCASTSD expc<>+8(SB), Y11

// ROUND: n = round-to-nearest-even(x·log2e), as int32 (CVTSD2SL) and as
// float64 (CVTSL2SD).
#define ROUND \
	VMULPD     Y7, Y0, Y1; \
	VCVTPD2DQY Y1, X4;     \
	VCVTDQ2PD  X4, Y1

// TERM continues the polynomial in Y2 by the coefficient at off.
#define TERM_FMA(off) \
	VBROADCASTSD expc<>+off(SB), Y3; \
	VFMADD213PD  Y3, Y0, Y2

#define TERM_SSE2(off) \
	VMULPD       Y0, Y2, Y2;          \
	VBROADCASTSD expc<>+off(SB), Y3; \
	VADDPD       Y3, Y2, Y2

// REDUCE_FMA is archExp's avxfma block: Y0 = exp(r)·2^-n, fused.
#define REDUCE_FMA \
	VFNMADD231PD Y11, Y1, Y0;         \
	VFNMADD231PD Y10, Y1, Y0;         \
	VMULPD       Y6, Y0, Y0;          \
	VBROADCASTSD expc<>+32(SB), Y2;  \
	TERM_FMA(40);                     \
	TERM_FMA(48);                     \
	TERM_FMA(56);                     \
	TERM_FMA(64);                     \
	TERM_FMA(72);                     \
	TERM_FMA(80);                     \
	VFMADD213PD  Y8, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VFMADD213PD  Y8, Y2, Y0

// REDUCE_SSE2 is the same block without FMA: every product rounded.
#define REDUCE_SSE2 \
	VMULPD       Y11, Y1, Y2;         \
	VSUBPD       Y2, Y0, Y0;          \
	VMULPD       Y10, Y1, Y2;         \
	VSUBPD       Y2, Y0, Y0;          \
	VMULPD       Y6, Y0, Y0;          \
	VBROADCASTSD expc<>+32(SB), Y2;  \
	TERM_SSE2(40);                    \
	TERM_SSE2(48);                    \
	TERM_SSE2(56);                    \
	TERM_SSE2(64);                    \
	TERM_SSE2(72);                    \
	TERM_SSE2(80);                    \
	VMULPD       Y0, Y2, Y2;          \
	VADDPD       Y8, Y2, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y9, Y0, Y2;          \
	VMULPD       Y2, Y0, Y0;          \
	VADDPD       Y8, Y0, Y0

// LDEXP multiplies by 2^n, built as archExp builds it: (n + 0x3ff) << 52
// as the bits of a float64 — here the int32 (n + 0x3ff) << 20 as the high
// half of each lane, in 128-bit integer instructions (AVX, not AVX2).
#define LDEXP \
	VBROADCASTSS expc<>+120(SB), X3; \
	VPADDD       X3, X4, X4;          \
	VPSLLD       $20, X4, X4;         \
	VPXOR        X3, X3, X3;          \
	VPUNPCKHDQ   X4, X3, X1;          \
	VPUNPCKLDQ   X4, X3, X4;          \
	VINSERTF128  $1, X1, Y4, Y4;      \
	VMULPD       Y4, Y0, Y0

// func expRowAVX(row []float32, maxv float64, softmax, fma bool, sum float64) (n int, s float64)
// Continues sum over e_i = exp(x_i), i ascending, four entries at a time:
// x_i = float64(row[i] - float32(maxv)) with row[i] = float32(e_i) written
// back when softmax, x_i = float64(row[i]) - maxv otherwise. It stops
// before the first block of four that is short or holds an argument
// outside |x| < 708, and returns the entries it consumed and the sum.
//
// Registers: SI row, CX len(row), R9 i, R10 softmax, R11 fma, X5 the sum,
// Y12 708, Y13 maxv (four float32 lanes when softmax), Y14 |·| mask.
TEXT ·expRowAVX(SB), NOSPLIT, $0-64
	MOVQ    row_base+0(FP), SI
	MOVQ    row_len+8(FP), CX
	MOVBLZX softmax+32(FP), R10
	MOVBLZX fma+33(FP), R11
	VMOVSD  sum+40(FP), X5
	EXPCONSTS
	VBROADCASTSD expc<>+104(SB), Y12
	VBROADCASTSD expc<>+112(SB), Y14
	VBROADCASTSD maxv+24(FP), Y13
	TESTQ   R10, R10
	JZ      start
	VCVTSD2SS X13, X13, X13
	VSHUFPS $0, X13, X13, X13
start:
	XORQ    R9, R9

block:
	LEAQ    4(R9), AX
	CMPQ    AX, CX
	JGT     done
	TESTQ   R10, R10
	JZ      widen
	VMOVUPS (SI)(R9*4), X0
	VSUBPS  X13, X0, X0
	VCVTPS2PD X0, Y0
	JMP     domain
widen:
	VCVTPS2PD (SI)(R9*4), Y0
	VSUBPD  Y13, Y0, Y0
domain:
	VANDPD  Y14, Y0, Y1
	VCMPPD  $1, Y12, Y1, Y1 // |x| < 708, false for NaN
	VMOVMSKPD Y1, AX
	CMPL    AX, $15
	JNE     done

	ROUND
	TESTQ   R11, R11
	JZ      sse2
	REDUCE_FMA
	JMP     scale
sse2:
	REDUCE_SSE2
scale:
	LDEXP

	TESTQ   R10, R10
	JZ      accumulate
	VCVTPD2PSY Y0, X1
	VMOVUPS X1, (SI)(R9*4)
accumulate:
	VADDSD  X0, X5, X5
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X5, X5
	VEXTRACTF128 $1, Y0, X1
	VADDSD  X1, X5, X5
	VUNPCKHPD X1, X1, X1
	VADDSD  X1, X5, X5
	ADDQ    $4, R9
	JMP     block

done:
	MOVQ    R9, n+48(FP)
	VMOVSD  X5, s+56(FP)
	VZEROUPPER
	RET

// func expLanesAVX(x *[4]float64, fma bool)
// Replaces each of x's four arguments, which must satisfy |x| < 708, by
// its exp: the lanes of expRowAVX alone, for the init check and the tests.
TEXT ·expLanesAVX(SB), NOSPLIT, $0-9
	MOVQ    x+0(FP), DI
	MOVBLZX fma+8(FP), R11
	EXPCONSTS
	VMOVUPD (DI), Y0
	ROUND
	TESTQ   R11, R11
	JZ      sse2
	REDUCE_FMA
	JMP     scale
sse2:
	REDUCE_SSE2
scale:
	LDEXP
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func siluMulAVX(act, gate, up []float32, fma bool) (n int)
// Writes act[i] = float32(x / (1 + exp(-x))) * up[i] with x =
// float64(gate[i]), i ascending, four entries at a time: x widened, -x by
// flipping the sign bit (so ±0 stay exact), exp(-x) by the lanes above,
// then 1 + e, the divide, the narrowing and the float32 product, each
// rounded as the Go expression rounds it. It stops before the first block
// of four that is short or holds an x outside |x| < 708 (NaN included),
// and returns the entries it wrote.
//
// Registers: DI act, SI gate, DX up, CX len(gate), R9 i, R11 fma, Y5 x,
// Y12 708, Y14 |·| mask, Y15 sign mask.
TEXT ·siluMulAVX(SB), NOSPLIT, $0-88
	MOVQ    act_base+0(FP), DI
	MOVQ    gate_base+24(FP), SI
	MOVQ    gate_len+32(FP), CX
	MOVQ    up_base+48(FP), DX
	MOVBLZX fma+72(FP), R11
	EXPCONSTS
	VBROADCASTSD expc<>+104(SB), Y12
	VBROADCASTSD expc<>+112(SB), Y14
	VBROADCASTSD expc<>+128(SB), Y15
	XORQ    R9, R9

block:
	LEAQ    4(R9), AX
	CMPQ    AX, CX
	JGT     done
	VCVTPS2PD (SI)(R9*4), Y5
	VANDPD  Y14, Y5, Y1
	VCMPPD  $1, Y12, Y1, Y1 // |x| < 708, false for NaN
	VMOVMSKPD Y1, AX
	CMPL    AX, $15
	JNE     done

	VXORPD  Y15, Y5, Y0
	ROUND
	TESTQ   R11, R11
	JZ      sse2
	REDUCE_FMA
	JMP     scale
sse2:
	REDUCE_SSE2
scale:
	LDEXP
	VADDPD  Y8, Y0, Y0
	VDIVPD  Y0, Y5, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS (DX)(R9*4), X1
	VMULPS  X1, X0, X0
	VMOVUPS X0, (DI)(R9*4)
	ADDQ    $4, R9
	JMP     block

done:
	MOVQ    R9, n+80(FP)
	VZEROUPPER
	RET

// func cpuHasFMA() bool
// CPUID.1:ECX bit 12. math.Exp's useFMA also needs AVX with OS support,
// which cpuHasAVX has checked before this is asked.
TEXT ·cpuHasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
