package numerics

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"
	"testing"
)

// TestRoundSliceMatchesRound pins the bulk requantizer to the scalar
// Round path bit for bit. The input space is covered exhaustively: for
// each 16-bit format, every float32 whose top 16 bits take each possible
// value is tried with several low-half patterns (the low half is what
// rounding consumes), plus denormals, infinities, and NaN payloads.
func TestRoundSliceMatchesRound(t *testing.T) {
	lows := []uint32{0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF}
	for _, d := range []DType{FP32, FP16, BF16} {
		for hi := uint32(0); hi < 1<<16; hi++ {
			for _, lo := range lows {
				bits := hi<<16 | lo
				v := math.Float32frombits(bits)
				// FP32 signaling NaNs: the scalar path's float64 round
				// trip quiets them as an artifact of conversion, while
				// the no-op bulk path preserves the pattern. float32
				// arithmetic can't produce sNaN, so the divergence is
				// unreachable; exempt it rather than emulate the quirk.
				if d == FP32 && bits&0x7F800000 == 0x7F800000 &&
					bits&0x007FFFFF != 0 && bits&0x00400000 == 0 {
					continue
				}
				got := []float32{v}
				RoundSlice(d, got)
				want := float32(Round(d, float64(v)))
				if math.Float32bits(got[0]) != math.Float32bits(want) {
					t.Fatalf("%v RoundSlice(%#08x)=%#08x want %#08x",
						d, bits, math.Float32bits(got[0]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestRoundSliceInPlace checks a multi-element slice is rounded
// elementwise in place, leaving length and order intact.
func TestRoundSliceInPlace(t *testing.T) {
	vals := []float32{1.0000152587890625, -3.14159265, 65505, 1e-40,
		float32(math.Inf(-1)), 0, float32(math.NaN())}
	want := make([]float32, len(vals))
	for i, v := range vals {
		want[i] = float32(Round(BF16, float64(v)))
	}
	RoundSlice(BF16, vals)
	for i := range vals {
		if math.Float32bits(vals[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: got %#08x want %#08x",
				i, math.Float32bits(vals[i]), math.Float32bits(want[i]))
		}
	}
}

// roundingLows are the low halves of a float32 at each BF16 rounding
// boundary: exact, just above zero, just below half, the tie, just above
// it, and just below the next value.
var roundingLows = []uint32{0x0000, 0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF}

// checkRoundBF16 rounds vals through RoundSlice, the pass this machine
// selected, and holds every entry to roundBF16Portable bit for bit.
func checkRoundBF16(t *testing.T, label string, vals []float32) {
	t.Helper()
	got := append([]float32(nil), vals...)
	want := append([]float32(nil), vals...)
	RoundSlice(BF16, got)
	roundBF16Portable(want)
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: entry %d: RoundSlice(%#08x) = %#08x, portable %#08x", label, i,
				math.Float32bits(vals[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestRoundSliceBF16Lanes pins the BF16 lanes to the portable loop on
// every high 16-bit half with each low half in roundingLows — every
// sign, exponent and kept mantissa, so every NaN class too: quiet and
// signalling, payload in the kept half, in the dropped half or both —
// with the slice started at each of four offsets, so every value sits in
// every lane and the ragged tail takes every length.
func TestRoundSliceBF16Lanes(t *testing.T) {
	vals := make([]float32, 0, 3+len(roundingLows)<<16)
	for hi := uint32(0); hi < 1<<16; hi++ {
		for _, lo := range roundingLows {
			vals = append(vals, math.Float32frombits(hi<<16|lo))
		}
	}
	for off := 0; off < 4; off++ {
		lead := []float32{1.00390625, float32(math.NaN()), float32(math.Copysign(0, -1))}[:off]
		checkRoundBF16(t, fmt.Sprintf("offset %d", off), append(lead, vals...))
	}
}

// TestRoundSliceBF16Exhaustive pins the BF16 lanes to the portable loop
// on every float32 bit pattern. It is skipped under -short and under the
// race detector, which slows the reference loop past use.
func TestRoundSliceBF16Exhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("every float32 pattern: skipped under -short")
	}
	if raceEnabled() {
		t.Skip("every float32 pattern: skipped under -race")
	}
	const chunk = 1 << 16
	got, want := make([]float32, chunk), make([]float32, chunk)
	for base := uint64(0); base < 1<<32; base += chunk {
		for i := range got {
			got[i] = math.Float32frombits(uint32(base) + uint32(i))
		}
		copy(want, got)
		RoundSlice(BF16, got)
		roundBF16Portable(want)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("RoundSlice(%#08x) = %#08x, portable %#08x", uint32(base)+uint32(i), math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// FuzzRoundSlice feeds raw bit patterns to RoundSlice's BF16 pass and
// holds it to the portable loop.
func FuzzRoundSlice(f *testing.F) {
	f.Add([]byte{0, 0x80, 0x80, 0x3f, 1, 0, 0x80, 0x7f, 0xff, 0xff, 0xff, 0xff, 0, 0x80, 0, 0x80, 0xff, 0x7f, 0x7f, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float32, len(b)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		checkRoundBF16(t, "fuzz", vals)
	})
}

// BenchmarkRoundSliceBF16 times one BF16 requantization of 176 values,
// the benchmark model's hidden width, under the selected pass and the
// portable one.
func BenchmarkRoundSliceBF16(b *testing.B) {
	src := make([]float32, 176)
	for i := range src {
		src[i] = float32(i)*0.37 - 30
	}
	vals := make([]float32, len(src))
	for name, pass := range map[string]func([]float32){"selected": roundBF16, "portable": roundBF16Portable} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(vals, src)
				pass(vals)
			}
		})
	}
}
