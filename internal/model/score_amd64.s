#include "textflag.h"

// The AVX Q·K kernel: scores[t] = float32(Σ_i q[i]·float64(key[i][t]) ·
// scale), vectorised ACROSS key positions. Each YMM lane owns one score's
// float64 accumulator and runs exactly scoreKeysPortable's sequence for it
// — start at +0, i ascending, widen the key (VCVTPS2PD), one multiply
// (VMULPD) then one add (VADDPD), never an FMA, never a reassociated sum;
// then times scale and narrowed (VCVTPD2PS) — so every score is
// bit-identical to the portable loop's. A pass takes sixteen positions on
// four accumulators, so four independent add chains hide the add latency.
//
// Keys are a K plane's columns, ld positions apart (kv.go): the sixteen
// positions of column i are 64 contiguous bytes, widened straight from
// memory with no shuffle. The last pass runs all sixteen lanes inside the
// plane's capacity and stores only the positions below n.
//
// Registers: DI scores, BX n, SI q, CX &q[hd], DX keys, R8 ld in bytes,
// R9 t, R10 &keys[i·ld+t], R11 &q[i]. Y0-Y3 the accumulators of
// positions t..t+15, Y4 q[i] broadcast, Y7 scale, Y8-Y11 the widened
// keys and products.

// STEP adds q[i]·float64(keys[i·ld+t+4j..]) to accumulator j.
#define STEP(off, x, acc) \
	VCVTPS2PD off(R10), x; \
	VMULPD    Y4, x, x;    \
	VADDPD    x, acc, acc

// func scoreKeysAVX(scores []float32, qf []float64, keys []float32, ld int, scale float64)
// Requires len(scores) and len(qf) positive, and len(keys) ≥
// (len(qf)-1)·ld + len(scores) rounded up to 16; the Go wrapper sees to
// all three.
TEXT ·scoreKeysAVX(SB), NOSPLIT, $64-88
	MOVQ scores_base+0(FP), DI
	MOVQ scores_len+8(FP), BX
	MOVQ qf_base+24(FP), SI
	MOVQ qf_len+32(FP), CX
	LEAQ (SI)(CX*8), CX
	MOVQ keys_base+48(FP), DX
	MOVQ ld+72(FP), R8
	SHLQ $2, R8
	VBROADCASTSD scale+80(FP), Y7
	XORQ R9, R9

pass:
	LEAQ   (DX)(R9*4), R10
	MOVQ   SI, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

column:
	VBROADCASTSD (R11), Y4
	STEP(0, Y8, Y0)
	STEP(16, Y9, Y1)
	STEP(32, Y10, Y2)
	STEP(48, Y11, Y3)
	ADDQ R8, R10
	ADDQ $8, R11
	CMPQ R11, CX
	JLT  column

	VMULPD     Y7, Y0, Y0
	VMULPD     Y7, Y1, Y1
	VMULPD     Y7, Y2, Y2
	VMULPD     Y7, Y3, Y3
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3
	LEAQ       16(R9), AX
	CMPQ       AX, BX
	JGT        tail
	VMOVUPS    X0, (DI)(R9*4)
	VMOVUPS    X1, 16(DI)(R9*4)
	VMOVUPS    X2, 32(DI)(R9*4)
	VMOVUPS    X3, 48(DI)(R9*4)
	MOVQ       AX, R9
	CMPQ       R9, BX
	JLT        pass
	JMP        done

tail:
	// Positions t..n-1 of the sixteen go out through the frame.
	VMOVUPS X0, 0(SP)
	VMOVUPS X1, 16(SP)
	VMOVUPS X2, 32(SP)
	VMOVUPS X3, 48(SP)
	LEAQ    (DI)(R9*4), R10
	SUBQ    R9, BX
	XORQ    AX, AX

store:
	MOVL (SP)(AX*4), R11
	MOVL R11, (R10)(AX*4)
	INCQ AX
	CMPQ AX, BX
	JLT  store

done:
	VZEROUPPER
	RET
