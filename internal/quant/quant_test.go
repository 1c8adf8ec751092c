package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/prng"
	"repro/internal/tensor"
)

func randWeights(seed uint64, r, c int, sigma float64) *tensor.Tensor {
	src := prng.New(seed)
	t := tensor.New(r, c)
	for i := range t.Data {
		t.Data[i] = float32(src.NormFloat64() * sigma)
	}
	return t
}

// roundtripWithin reports whether every dequantized value of a random
// 64×16 weight quantized at bits lies within the round-to-nearest bound of
// its original. The codes are rounded against the float64 scale
// s = maxAbs/qmax, but the weight keeps float32(s), at most ulp₃₂(s)/2
// away, and a code of magnitude up to qmax+1 multiplies that gap: the
// error is bounded by s/2 + (qmax+1)·ulp₃₂(s)/2, not s/2 alone. ulp₃₂ of
// the stored scale bounds ulp₃₂(s) from above, and s/2 exceeds the stored
// scale's half by at most ulp₃₂/4, inside that term.
func roundtripWithin(seed uint64, bits int) bool {
	w := randWeights(seed, 64, 16, 0.1)
	q, err := Quantize(w, bits)
	if err != nil {
		return false
	}
	codes := float64(int(1) << (bits - 1)) // qmax + 1
	for r := 0; r < w.Rows; r++ {
		for c := 0; c < w.Cols; c++ {
			s32 := q.scales[r/GroupSize*q.out+c]
			ulp := float64(math.Nextafter32(s32, float32(math.Inf(1))) - s32)
			bound := float64(s32)/2 + codes*ulp/2
			if math.Abs(q.Get(r, c)-float64(w.At(r, c))) > bound+1e-9 {
				return false
			}
		}
	}
	return true
}

func TestQuantizeRoundtripError(t *testing.T) {
	// The first (seed, bits) draws whose error passes s/2 by the float32
	// term, found in a sweep of 20 000 seeds at 4 and 8 bits.
	for _, tc := range []struct {
		seed uint64
		bits int
	}{{206, 8}, {1343, 4}, {1343, 8}, {3055, 8}} {
		if !roundtripWithin(tc.seed, tc.bits) {
			t.Errorf("seed %d, %d bits: a dequantized value lies outside the round-to-nearest bound", tc.seed, tc.bits)
		}
	}
	f := func(seed uint64, bits8 bool) bool {
		if bits8 {
			return roundtripWithin(seed, 8)
		}
		return roundtripWithin(seed, 4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuantizedForwardApproximatesDense(t *testing.T) {
	w := randWeights(5, 48, 24, 0.1)
	q8, err := Quantize(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(6)
	x := make([]float32, 48)
	for i := range x {
		x[i] = float32(src.NormFloat64())
	}
	dense := make([]float32, 24)
	tensor.MatVec(dense, x, w)
	quant := make([]float32, 24)
	q8.Forward(quant, x)
	for i := range dense {
		if math.Abs(float64(dense[i]-quant[i])) > 0.05 {
			t.Fatalf("INT8 forward[%d] = %g vs dense %g", i, quant[i], dense[i])
		}
	}
}

func TestInt4RangePreservedUnderFlips(t *testing.T) {
	w := randWeights(7, 32, 8, 0.1)
	q4, err := Quantize(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(rRaw, cRaw, b1Raw, b2Raw uint8) bool {
		r, c := int(rRaw)%32, int(cRaw)%8
		b1, b2 := int(b1Raw)%4, int(b2Raw)%4
		bits := []int{b1}
		if b2 != b1 {
			bits = append(bits, b2)
		}
		restore := q4.FlipBits(r, c, bits)
		code := q4.codes[r*q4.out+c]
		restore()
		return code >= -8 && code <= 7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFlipBitsRestore(t *testing.T) {
	w := randWeights(8, 32, 8, 0.1)
	q, err := Quantize(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]int8(nil), q.codes...)
	restore := q.FlipBits(3, 2, []int{0, 7})
	restore()
	for i := range before {
		if q.codes[i] != before[i] {
			t.Fatal("FlipBits restore incomplete")
		}
	}
}

func TestMaxPerturbationBound(t *testing.T) {
	// Observation #8's mechanism: no single-element fault can move a
	// quantized weight further than MaxPerturbation, which is tiny
	// compared to a BF16 exponent flip.
	w := randWeights(9, 64, 8, 0.1)
	for _, bits := range []int{4, 8} {
		q, err := Quantize(w, bits)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			src := prng.New(uint64(trial))
			r, c := src.Intn(64), src.Intn(8)
			var flip []int
			for len(flip) < 2 {
				b := src.Intn(bits)
				if len(flip) == 0 || flip[0] != b {
					flip = append(flip, b)
				}
			}
			before := q.Get(r, c)
			restore := q.FlipBits(r, c, flip)
			after := q.Get(r, c)
			restore()
			if math.Abs(after-before) > q.MaxPerturbation(r, c) {
				t.Fatalf("perturbation %g exceeds bound %g", math.Abs(after-before), q.MaxPerturbation(r, c))
			}
			if math.Abs(after) > 1 {
				t.Fatalf("quantized weight reached %g — should be bounded by scale", after)
			}
		}
	}
}

func TestQuantizeModelEndToEnd(t *testing.T) {
	cfg := model.Config{
		Name: "q", Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 2,
		FFHidden: 24, MaxSeq: 16, Eps: 1e-5, DType: numerics.FP32,
		RopeTheta: 10000,
	}
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 4})
	qm, err := QuantizeModel(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	a := m.NewState().Prefill([]int{1, 5, 6, 7})
	b := qm.NewState().Prefill([]int{1, 5, 6, 7})
	// INT8 outputs track the dense model closely in argmax terms.
	if tensor.Argmax(a) != tensor.Argmax(b) {
		t.Log("argmax differs between dense and INT8 (acceptable but unusual at this scale)")
	}
	var maxDiff float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.5 {
		t.Fatalf("INT8 model deviates too much: max logit diff %g", maxDiff)
	}
	// Quantized layers are enumerable and injectable.
	layers := qm.LinearLayers()
	if len(layers) != 14 {
		t.Fatalf("quantized model layers = %d", len(layers))
	}
	if layers[0].Weight.StorageBits() != 8 {
		t.Fatalf("storage bits = %d, want 8", layers[0].Weight.StorageBits())
	}
}

func TestQuantizeRejectsBadBits(t *testing.T) {
	if _, err := Quantize(tensor.New(4, 4), 3); err == nil {
		t.Fatal("expected error for 3-bit quantization")
	}
}

func TestCloneWeightIndependent(t *testing.T) {
	w := randWeights(1, 32, 4, 0.1)
	q, _ := Quantize(w, 8)
	c := q.CloneWeight().(*Weight)
	c.FlipBits(0, 0, []int{7})
	if q.codes[0] == c.codes[0] {
		t.Fatal("clone shares code storage")
	}
}
