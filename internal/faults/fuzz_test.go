package faults

import (
	"math"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/prng"
)

// fuzzSampler caches one model + sampler across fuzz iterations: building
// a model per input would dominate the fuzzing budget.
var fuzzSampler = sync.OnceValue(func() *Sampler {
	cfg := model.Config{
		Name: "fuzz", Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 3,
		FFHidden: 24, MaxSeq: 24, Eps: 1e-5, DType: numerics.BF16,
		RopeTheta: 10000,
	}
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 5})
	sp, err := NewSampler(m, nil)
	if err != nil {
		panic(err)
	}
	return sp
})

// FuzzFlipBits drives the site sampler and the bit-flip primitive with
// arbitrary seeds and values, checking the invariants the whole injection
// layer rests on: sampled sites flip exactly the fault model's bit count
// at distinct, sorted, in-range positions; a flip changes exactly those
// bits of the encoded pattern; and flipping twice is the identity on the
// format-rounded value.
func FuzzFlipBits(f *testing.F) {
	f.Add(uint64(1), uint8(0), 1.5)
	f.Add(uint64(2), uint8(1), -0.0)
	f.Add(uint64(3), uint8(2), 1e38)
	f.Add(uint64(99), uint8(1), 6.1e-5)
	f.Add(uint64(7), uint8(2), math.Inf(1))

	f.Fuzz(func(t *testing.T, seed uint64, fmSel uint8, v float64) {
		sp := fuzzSampler()
		fm := Models[int(fmSel)%len(Models)]
		src := prng.New(seed)
		site := sp.Sample(src, fm, 12)

		if site.Fault != fm {
			t.Fatalf("site fault %v, sampled for %v", site.Fault, fm)
		}
		if got := len(site.Bits); got != fm.NumBits() {
			t.Fatalf("%v site flips %d bits, model says %d", fm, got, fm.NumBits())
		}
		width := numerics.BF16.Bits()
		for i, b := range site.Bits {
			if b < 0 || b >= width {
				t.Fatalf("bit %d out of range [0,%d)", b, width)
			}
			if i > 0 && site.Bits[i] <= site.Bits[i-1] {
				t.Fatalf("bits %v not strictly increasing", site.Bits)
			}
		}
		if fm.IsMemory() {
			if site.GenIter != 0 {
				t.Fatalf("memory site carries GenIter %d", site.GenIter)
			}
		} else if site.GenIter < 0 || site.GenIter >= 12 {
			t.Fatalf("comp site GenIter %d outside [0,12)", site.GenIter)
		}
		if site.HighestBit() != site.Bits[len(site.Bits)-1] {
			t.Fatalf("HighestBit %d vs bits %v", site.HighestBit(), site.Bits)
		}

		// The flip primitive: XOR semantics and involutivity on the
		// rounded value. NaN intermediates are excluded because Encode
		// canonicalizes NaN payloads, which legitimately breaks the
		// round trip.
		const dt = numerics.BF16
		r := numerics.Round(dt, v)
		if math.IsNaN(r) {
			t.Skip("NaN payload")
		}
		flipped := numerics.FlipBits(dt, r, site.Bits...)
		if math.IsNaN(flipped) {
			t.Skip("flip produced NaN")
		}
		diff := numerics.Encode(dt, r) ^ numerics.Encode(dt, flipped)
		if got := bits.OnesCount32(diff); got != len(site.Bits) {
			t.Fatalf("flip of %v changed %d bits (pattern %#x), want %d", site.Bits, got, diff, len(site.Bits))
		}
		if back := numerics.FlipBits(dt, flipped, site.Bits...); back != r && !(back == 0 && r == 0) {
			t.Fatalf("double flip of %g at %v gives %g, want identity", r, site.Bits, back)
		}
	})
}
