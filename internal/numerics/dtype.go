// Package numerics implements bit-level encodings of the floating-point
// formats studied in the paper (Table 2: FP16, FP32, BF16) plus the
// primitives the fault models are built on: encoding a value into a
// format's bit pattern, flipping arbitrary bits of that pattern, and
// decoding back.
//
// All model arithmetic in this repository is carried out in float64/float32
// for speed, but every value logically lives in one of these formats:
// after each operation values are rounded ("requantized") to the active
// DType, and fault injection flips bits of the DType representation — so
// the reachable post-flip values are exactly those of the real hardware
// format. This is what makes Observations #8 and #11 (quantization and
// datatype sensitivity) reproducible.
package numerics

import (
	"fmt"
	"math"
)

// DType identifies a floating-point storage format.
type DType int

const (
	// FP32 is IEEE 754 binary32: 1 sign, 8 exponent, 23 mantissa bits.
	FP32 DType = iota
	// FP16 is IEEE 754 binary16: 1 sign, 5 exponent, 10 mantissa bits.
	FP16
	// BF16 is bfloat16: 1 sign, 8 exponent, 7 mantissa bits (truncated FP32).
	BF16
)

// String returns the conventional name of the format.
func (d DType) String() string {
	switch d {
	case FP32:
		return "FP32"
	case FP16:
		return "FP16"
	case BF16:
		return "BF16"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// Bits returns the total storage width of the format in bits.
func (d DType) Bits() int {
	if d == FP32 {
		return 32
	}
	return 16
}

// ExponentBits returns the width of the exponent field (Table 2).
func (d DType) ExponentBits() int {
	switch d {
	case FP16:
		return 5
	default:
		return 8
	}
}

// MantissaBits returns the width of the fraction field.
func (d DType) MantissaBits() int {
	return d.Bits() - 1 - d.ExponentBits()
}

// MaxFinite returns the largest finite positive value representable in the
// format ("Approximate Range" upper bound in Table 2).
func (d DType) MaxFinite() float64 {
	switch d {
	case FP16:
		return 65504
	case BF16:
		// 0x7F7F = sign 0, exponent 0xFE, mantissa 0x7F.
		return Decode(BF16, 0x7F7F)
	default:
		return math.MaxFloat32
	}
}

// SmallestNormal returns the smallest positive normal value ("Approximate
// Range" lower bound in Table 2).
func (d DType) SmallestNormal() float64 {
	switch d {
	case FP16:
		return Decode(FP16, 0x0400) // 2^-14
	case BF16:
		return Decode(BF16, 0x0080) // 2^-126
	default:
		return math.SmallestNonzeroFloat32 * math.Pow(2, 23) // 2^-126
	}
}

// Encode converts v to the bit pattern of format d using round-to-nearest-
// even. Values beyond the format's range become ±Inf patterns; NaN maps to
// a quiet NaN pattern.
func Encode(d DType, v float64) uint32 {
	switch d {
	case FP32:
		return math.Float32bits(float32(v))
	case BF16:
		return uint32(EncodeBF16(float32(v)))
	case FP16:
		return uint32(EncodeFP16(float32(v)))
	default:
		panic("numerics: unknown dtype")
	}
}

// Decode converts a bit pattern of format d back to float64.
func Decode(d DType, bits uint32) float64 {
	switch d {
	case FP32:
		return float64(math.Float32frombits(bits))
	case BF16:
		return float64(DecodeBF16(uint16(bits)))
	case FP16:
		return float64(DecodeFP16(uint16(bits)))
	default:
		panic("numerics: unknown dtype")
	}
}

// Round returns v after a round trip through format d, i.e. the value the
// hardware would actually hold. Infinities produced by overflow are
// preserved (they then propagate through subsequent arithmetic exactly as
// they would on a GPU).
func Round(d DType, v float64) float64 {
	if d == FP32 {
		return float64(float32(v))
	}
	return Decode(d, Encode(d, v))
}

// RoundSlice requantizes every element of vals to format d in place,
// bit-identical to applying Round elementwise. This is the decode hot
// path's bulk form: every linear-layer output row is rounded after its
// hooks and checker ran, and the per-element Round call chain (Encode,
// Decode, two float64 conversions) costs more than the arithmetic it
// wraps. BF16 runs roundBF16, the EncodeBF16/DecodeBF16 round trip as
// pure bit manipulation.
func RoundSlice(d DType, vals []float32) {
	switch d {
	case FP32:
		// float32 storage: values are already exactly representable.
	case BF16:
		roundBF16(vals)
	case FP16:
		for i, v := range vals {
			vals[i] = DecodeFP16(EncodeFP16(v))
		}
	default:
		panic("numerics: unknown dtype")
	}
}

// roundBF16 is RoundSlice's BF16 pass: four integer lanes on amd64 (set
// once at init, round_amd64.go), roundBF16Portable everywhere else. Both
// produce the same bits, so nothing chooses between them.
var roundBF16 = roundBF16Portable

// roundBF16Portable rounds each value to BF16 as EncodeBF16 then
// DecodeBF16 would: the reference every faster pass is pinned to.
func roundBF16Portable(vals []float32) {
	for i, v := range vals {
		b := math.Float32bits(v)
		if b&0x7F800000 == 0x7F800000 && b&0x007FFFFF != 0 {
			// NaN: preserve payload top bits, force quiet (EncodeBF16).
			vals[i] = math.Float32frombits((b>>16 | 0x0040) << 16)
			continue
		}
		round := uint32(0x7FFF + (b>>16)&1)
		vals[i] = math.Float32frombits((b + round) >> 16 << 16)
	}
}

// FlipBit returns the value of v (held in format d) after flipping bit
// position pos, where pos 0 is the least-significant mantissa bit and
// pos == d.Bits()-1 is the sign bit. The paper indexes bits the same way:
// for BF16, "bit position 14" is the most significant exponent bit
// (Figures 9–10), one below the sign bit at position 15.
func FlipBit(d DType, v float64, pos int) float64 {
	if pos < 0 || pos >= d.Bits() {
		panic(fmt.Sprintf("numerics: bit position %d out of range for %v", pos, d))
	}
	return Decode(d, Encode(d, v)^(1<<uint(pos)))
}

// FlipBits flips every listed bit position of v in format d.
func FlipBits(d DType, v float64, positions ...int) float64 {
	bits := Encode(d, v)
	for _, pos := range positions {
		if pos < 0 || pos >= d.Bits() {
			panic(fmt.Sprintf("numerics: bit position %d out of range for %v", pos, d))
		}
		bits ^= 1 << uint(pos)
	}
	return Decode(d, bits)
}

// BitClass describes the role of a bit position within a format.
type BitClass int

const (
	// MantissaBit positions hold fraction bits.
	MantissaBit BitClass = iota
	// ExponentBit positions hold exponent bits.
	ExponentBit
	// SignBit is the most significant bit.
	SignBit
)

// String names the class.
func (c BitClass) String() string {
	switch c {
	case MantissaBit:
		return "mantissa"
	case ExponentBit:
		return "exponent"
	default:
		return "sign"
	}
}

// ClassifyBit reports whether position pos of format d is a mantissa,
// exponent, or sign bit.
func ClassifyBit(d DType, pos int) BitClass {
	switch {
	case pos == d.Bits()-1:
		return SignBit
	case pos >= d.MantissaBits():
		return ExponentBit
	default:
		return MantissaBit
	}
}

// IsDegenerate reports whether v is NaN, infinite, or has magnitude at
// least huge (default threshold used by the output-distortion analysis).
func IsDegenerate(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) >= 1e30
}
