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
// memory with no shuffle. The kernel reads no key at or past n — the
// positions after a prefill shard's, which the next shard may be writing
// (forwardStack). A last pass that would run past n backs up to end at
// n instead: it recomputes up to fifteen positions already stored (each
// lane's sum is its own position's, so with the same bits) and stores
// only the rest. A context shorter than sixteen is one pass whose keys
// are loaded through lane masks (VMASKMOVPS).
//
// Registers: DI scores, BX n, SI q, CX &q[hd], DX keys, R8 ld in bytes,
// R9 t, R10 &keys[i·ld+t], R11 &q[i], R12 the masks' address, R13 the
// first position the pass stores. Y0-Y3 the accumulators of positions
// t..t+15, Y4 q[i] broadcast, Y7 scale, Y8-Y11 the widened keys and
// products, X12-X15 a masked pass's masks.

// STEP adds q[i]·float64(keys[i·ld+t+4j..]) to accumulator j.
#define STEP(off, x, acc) \
	VCVTPS2PD off(R10), x; \
	VMULPD    Y4, x, x;    \
	VADDPD    x, acc, acc

// MSTEP is STEP with the four keys loaded under mask; a masked-out lane
// reads nothing and widens +0.
#define MSTEP(off, mask, x, y, acc) \
	VMASKMOVPS off(R10), mask, x; \
	VCVTPS2PD  x, y;              \
	VMULPD     Y4, y, y;          \
	VADDPD     y, acc, acc

// scoreTailMask is sixteen all-ones lanes then sixteen zero lanes: the
// sixteen from lane 16-n on enable the first n positions of a pass.
DATA ·scoreTailMask+0(SB)/8, $-1
DATA ·scoreTailMask+8(SB)/8, $-1
DATA ·scoreTailMask+16(SB)/8, $-1
DATA ·scoreTailMask+24(SB)/8, $-1
DATA ·scoreTailMask+32(SB)/8, $-1
DATA ·scoreTailMask+40(SB)/8, $-1
DATA ·scoreTailMask+48(SB)/8, $-1
DATA ·scoreTailMask+56(SB)/8, $-1
DATA ·scoreTailMask+64(SB)/8, $0
DATA ·scoreTailMask+72(SB)/8, $0
DATA ·scoreTailMask+80(SB)/8, $0
DATA ·scoreTailMask+88(SB)/8, $0
DATA ·scoreTailMask+96(SB)/8, $0
DATA ·scoreTailMask+104(SB)/8, $0
DATA ·scoreTailMask+112(SB)/8, $0
DATA ·scoreTailMask+120(SB)/8, $0
GLOBL ·scoreTailMask(SB), RODATA|NOPTR, $128

// func scoreKeysAVX(scores []float32, qf []float64, keys []float32, ld int, scale float64)
// Requires len(scores) and len(qf) positive, and len(keys) ≥
// (len(qf)-1)·ld + len(scores); the Go wrapper sees to all three.
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
	XORQ R13, R13
	CMPQ BX, $16
	JLT  masked

pass:
	MOVQ   R9, R13
	LEAQ   16(R9), AX
	CMPQ   AX, BX
	JLE    compute
	MOVQ   BX, R9
	SUBQ   $16, R9

compute:
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
	CMPQ       R13, R9
	JNE        tail
	VMOVUPS    X0, (DI)(R9*4)
	VMOVUPS    X1, 16(DI)(R9*4)
	VMOVUPS    X2, 32(DI)(R9*4)
	VMOVUPS    X3, 48(DI)(R9*4)
	ADDQ       $16, R9
	CMPQ       R9, BX
	JLT        pass
	JMP        done

masked:
	// n < 16 positions, one pass from t = 0: lane j is enabled by
	// scoreTailMask lane 16-n+j.
	MOVQ    BX, AX
	SHLQ    $2, AX
	LEAQ    ·scoreTailMask+64(SB), R12
	SUBQ    AX, R12
	VMOVDQU 0(R12), X12
	VMOVDQU 16(R12), X13
	VMOVDQU 32(R12), X14
	VMOVDQU 48(R12), X15
	MOVQ    DX, R10
	MOVQ    SI, R11
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3

mcolumn:
	VBROADCASTSD (R11), Y4
	MSTEP(0, X12, X8, Y8, Y0)
	MSTEP(16, X13, X9, Y9, Y1)
	MSTEP(32, X14, X10, Y10, Y2)
	MSTEP(48, X15, X11, Y11, Y3)
	ADDQ R8, R10
	ADDQ $8, R11
	CMPQ R11, CX
	JLT  mcolumn

	VMULPD     Y7, Y0, Y0
	VMULPD     Y7, Y1, Y1
	VMULPD     Y7, Y2, Y2
	VMULPD     Y7, Y3, Y3
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VCVTPD2PSY Y2, X2
	VCVTPD2PSY Y3, X3

tail:
	// Positions R13..n-1, lanes R13-t on, go out through the frame.
	VMOVUPS X0, 0(SP)
	VMOVUPS X1, 16(SP)
	VMOVUPS X2, 32(SP)
	VMOVUPS X3, 48(SP)
	MOVQ    R13, AX
	SUBQ    R9, AX

store:
	MOVL (SP)(AX*4), R11
	MOVL R11, (DI)(R13*4)
	INCQ AX
	INCQ R13
	CMPQ R13, BX
	JLT  store

done:
	VZEROUPPER
	RET
