package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// siluSpecials are the gate and up values the SiLU tests place in every
// lane: signed zeros, float32 subnormals, the ends of the exp lanes'
// domain (|x| < 708) and just past them, infinities, and NaNs quiet and
// signalling, of either sign, with payloads high and low.
var siluSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x00400000),
	707.99, -707.99, math.Nextafter32(708, 0), -math.Nextafter32(708, 0), 708, -708, 709, -709, 1e30, -1e30,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001),
	math.Float32frombits(0xff812345), math.Float32frombits(0x7fffffff),
}

// siluMulScalar is SiLUMul as the plain element loop, with exp as given:
// math.Exp is the reference every pass is held to.
func siluMulScalar(act, gate, up []float32, exp func(float64) float64) {
	for i, g := range gate {
		act[i] = float32(float64(g)/(1+exp(-float64(g)))) * up[i]
	}
}

func checkSiLUMul(t *testing.T, label string, gate, up, want []float32) {
	t.Helper()
	got := make([]float32, len(gate))
	SiLUMul(got, gate, up)
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: entry %d: silu(%v (%08x))·%v = %v (%08x), scalar %v (%08x)", label, i,
				gate[i], math.Float32bits(gate[i]), up[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// FuzzSiLUMul feeds raw bit patterns as (gate, up) pairs to SiLUMul, the
// pass this machine selected, and holds it to the scalar expression.
func FuzzSiLUMul(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0x80, 0x7f, 0, 0, 0x31, 0x44, 1, 0, 0xc0, 0x7f})
	f.Add([]byte{0, 0xfe, 0x30, 0x44, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0xbf, 1, 0, 0, 0})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		n := len(b) / 8
		gate, up := make([]float32, n), make([]float32, n)
		for i := range gate {
			gate[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[8*i:]))
			up[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[8*i+4:]))
		}
		want := make([]float32, n)
		siluMulScalar(want, gate, up, math.Exp)
		checkSiLUMul(t, "fuzz", gate, up, want)
	})
}

// BenchmarkSiLUMul times one SwiGLU activation over 176 elements, the
// benchmark model's hidden width, under the selected pass and the
// portable one.
func BenchmarkSiLUMul(b *testing.B) {
	r := &testRand{s: 71}
	gate, up, act := make([]float32, 176), make([]float32, 176), make([]float32, 176)
	for i := range gate {
		gate[i], up[i] = 6*r.float(), r.float()
	}
	for name, kernel := range map[string]func(act, gate, up []float32){ExpKernel(): siluMul, "portable": siluMulPortable} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernel(act, gate, up)
			}
		})
	}
}
