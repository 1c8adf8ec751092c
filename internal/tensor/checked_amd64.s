#include "textflag.h"

// The ABFT check's four-row lanes: lane r of each YMM accumulator is row
// r's float64 chain, and runs exactly checkRow4From's sequence for it — start
// at +0, elements ascending, widen (VCVTPS2PD), one multiply (VMULPD) then
// one add (VADDPD), never an FMA or a reassociated sum — so each row's
// sums are bit-identical to CheckRow's. |x| is the sign bit cleared
// (VANDPD), as math.Abs does. The four rows' elements come in fours, one
// XMM per row, and a 4×4 transpose (VUNPCKLPS/VUNPCKHPS, then
// VMOVLHPS/VMOVHLPS) turns them into one XMM per element holding the four
// rows'. The expected and scale chains take the inputs, the observed
// chain the outputs, and a step takes four of each while both last: the
// three chains' adds overlap.
//
// Registers: SI the rows' inputs, DI their outputs, R8 and R9 the input
// and output row strides in bytes, R10 and R11 three of each, DX &Sum[p],
// BX &Abs[p], CX and AX the inputs and outputs left, R12 the result. Y12,
// Y13 and Y14 the expected, scale and observed chains, Y15 the abs mask,
// Y4-Y7 the transposed elements, Y0-Y3, Y8 and Y9 scratch.

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// TRANSPOSE loads four float32 from each of the four rows at base, ld
// bytes apart (ld3 = 3·ld), and leaves element e of the four rows in
// X4+e, row r in lane r.
#define TRANSPOSE(base, ld, ld3) \
	VMOVUPS   (base), X4;         \
	VMOVUPS   (base)(ld*1), X5;   \
	VMOVUPS   (base)(ld*2), X6;   \
	VMOVUPS   (base)(ld3*1), X7;  \
	VUNPCKLPS X5, X4, X0;         \
	VUNPCKHPS X5, X4, X1;         \
	VUNPCKLPS X7, X6, X2;         \
	VUNPCKHPS X7, X6, X3;         \
	VMOVLHPS  X2, X0, X4;         \
	VMOVHLPS  X0, X2, X5;         \
	VMOVLHPS  X3, X1, X6;         \
	VMOVHLPS  X1, X3, X7

// IN adds input element e's products to the expected and scale chains:
// x·Sum[p] and |x|·Abs[p], with x the four rows' element in xr.
#define IN(xr, yr, off) \
	VCVTPS2PD    xr, yr;       \
	VBROADCASTSD off(DX), Y8;  \
	VMULPD       Y8, yr, Y9;   \
	VADDPD       Y9, Y12, Y12; \
	VANDPD       Y15, yr, yr;  \
	VBROADCASTSD off(BX), Y8;  \
	VMULPD       Y8, yr, yr;   \
	VADDPD       yr, Y13, Y13

// OUT adds the four rows' output element in xr to the observed chain.
#define OUT(xr, yr) \
	VCVTPS2PD xr, yr; \
	VADDPD    yr, Y14, Y14

// func checkRow4AVX(x, out *float32, k, n int, sum, abs *float64, l *lanes)
// Runs four rows' chains over their first k&^3 inputs and n&^3 outputs:
// x holds the rows' k inputs back to back, out their n outputs, sum and
// abs the k check vectors' entries. Writes the chains to l.
TEXT ·checkRow4AVX(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ k+16(FP), R8
	MOVQ n+24(FP), R9
	MOVQ sum+32(FP), DX
	MOVQ abs+40(FP), BX
	MOVQ l+48(FP), R12
	MOVQ R8, CX
	ANDQ $-4, CX
	MOVQ R9, AX
	ANDQ $-4, AX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (R8)(R8*2), R10
	LEAQ (R9)(R9*2), R11
	VBROADCASTSD absmask<>(SB), Y15
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14

both:
	TESTQ CX, CX
	JZ    outs
	TESTQ AX, AX
	JZ    ins
	TRANSPOSE(SI, R8, R10)
	IN(X4, Y4, 0)
	IN(X5, Y5, 8)
	IN(X6, Y6, 16)
	IN(X7, Y7, 24)
	TRANSPOSE(DI, R9, R11)
	OUT(X4, Y4)
	OUT(X5, Y5)
	OUT(X6, Y6)
	OUT(X7, Y7)
	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $32, BX
	ADDQ $16, DI
	SUBQ $4, CX
	SUBQ $4, AX
	JMP  both

ins:
	TESTQ CX, CX
	JZ    done
	TRANSPOSE(SI, R8, R10)
	IN(X4, Y4, 0)
	IN(X5, Y5, 8)
	IN(X6, Y6, 16)
	IN(X7, Y7, 24)
	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  ins

outs:
	TESTQ AX, AX
	JZ    done
	TRANSPOSE(DI, R9, R11)
	OUT(X4, Y4)
	OUT(X5, Y5)
	OUT(X6, Y6)
	OUT(X7, Y7)
	ADDQ $16, DI
	SUBQ $4, AX
	JMP  outs

done:
	VMOVUPD Y12, 0(R12)
	VMOVUPD Y13, 32(R12)
	VMOVUPD Y14, 64(R12)
	VZEROUPPER
	RET
