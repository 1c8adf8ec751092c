#include "textflag.h"

// The AVX Q·K kernel: scores[t] = float32(Σ_i q[i]·float64(key[t][i]) ·
// scale), vectorised ACROSS key positions. Each YMM lane owns one score's
// float64 accumulator and runs exactly scoreKeysPortable's sequence for it
// — start at +0, i ascending, widen the key (VCVTPS2PD), one multiply
// (VMULPD) then one add (VADDPD), never an FMA, never a reassociated sum;
// then times scale and narrowed (VCVTPD2PS) — so every score is
// bit-identical to the portable loop's. A pass takes eight positions on
// two accumulators, so two independent add chains hide the add latency.
//
// Keys are rows stride apart, and a lane needs one column of four rows: a
// 4×4 in-register transpose of four rows' next four columns feeds four
// steps of i.
//
// Registers: DI scores, BX n, SI q, CX &q[hd], DX &keys[off], R8 stride
// in bytes, R12 3·stride, R9 t, R10 &keys[t·stride+off+i] and R13 four
// rows further, R11 &q[i]. Y4 and Y5 the accumulators of positions t..t+3
// and t+4..t+7, Y6 and Y12-Y14 q[i..i+3] broadcast, Y7 scale; X0-X3 rows
// then columns, X8-X11 the transpose's halves.

// COLUMNS loads columns i..i+3 of the four rows at base and transposes
// them: X0-X3 become columns i..i+3 across the four positions.
#define COLUMNS(base) \
	VMOVUPS   (base), X0;         \
	VMOVUPS   (base)(R8*1), X1;   \
	VMOVUPS   (base)(R8*2), X2;   \
	VMOVUPS   (base)(R12*1), X3;  \
	VUNPCKLPS X1, X0, X8;         \
	VUNPCKHPS X1, X0, X9;         \
	VUNPCKLPS X3, X2, X10;        \
	VUNPCKHPS X3, X2, X11;        \
	VMOVLHPS  X10, X8, X0;        \
	VMOVHLPS  X8, X10, X1;        \
	VMOVLHPS  X11, X9, X2;        \
	VMOVHLPS  X9, X11, X3

// STEP adds q[i]·float64(column) to the accumulator.
#define STEP(col, x, q, acc) \
	VCVTPS2PD col, x;   \
	VMULPD    q, x, x;  \
	VADDPD    x, acc, acc

// GROUP runs four steps of i for the four positions at base.
#define GROUP(base, acc) \
	COLUMNS(base);               \
	STEP(X0, Y0, Y12, acc);      \
	STEP(X1, Y1, Y13, acc);      \
	STEP(X2, Y2, Y14, acc);      \
	STEP(X3, Y3, Y6, acc)

// func scoreKeysAVX(scores []float32, qf []float64, keys []float32, off, stride int, scale float64)
// Requires len(scores) a multiple of 8, len(qf) a positive multiple of 4,
// and len(keys) > (len(scores)-1)·stride + off + len(qf) - 1; the Go
// wrapper sees to all three.
TEXT ·scoreKeysAVX(SB), NOSPLIT, $0-96
	MOVQ scores_base+0(FP), DI
	MOVQ scores_len+8(FP), BX
	MOVQ qf_base+24(FP), SI
	MOVQ qf_len+32(FP), CX
	LEAQ (SI)(CX*8), CX
	MOVQ keys_base+48(FP), DX
	MOVQ off+72(FP), AX
	LEAQ (DX)(AX*4), DX
	MOVQ stride+80(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R12
	VBROADCASTSD scale+88(FP), Y7
	XORQ R9, R9

pass:
	CMPQ   R9, BX
	JGE    done
	MOVQ   R9, R10
	IMULQ  R8, R10
	ADDQ   DX, R10
	LEAQ   (R10)(R8*4), R13
	MOVQ   SI, R11
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

columns:
	VBROADCASTSD (R11), Y12
	VBROADCASTSD 8(R11), Y13
	VBROADCASTSD 16(R11), Y14
	VBROADCASTSD 24(R11), Y6
	GROUP(R10, Y4)
	GROUP(R13, Y5)
	ADDQ $16, R10
	ADDQ $16, R13
	ADDQ $32, R11
	CMPQ R11, CX
	JLT  columns

	VMULPD     Y7, Y4, Y4
	VMULPD     Y7, Y5, Y5
	VCVTPD2PSY Y4, X4
	VCVTPD2PSY Y5, X5
	VMOVUPS    X4, (DI)(R9*4)
	VMOVUPS    X5, 16(DI)(R9*4)
	ADDQ       $8, R9
	JMP        pass

done:
	VZEROUPPER
	RET
