package tensor

import (
	"math"
	"testing"
)

// math.Exp's constants as $GOROOT/src/math/exp_amd64.s spells them.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

// expBranchRef transcribes archExp's normal path (|x| < 708) in Go, in its
// FMA branch (math.FMA, one rounding) or its MULSD/SUBSD branch. Every
// product the non-FMA branch rounds is wrapped in an explicit float64
// conversion, which the language forbids fusing into a following add, so
// this is the non-FMA sequence on any machine and under any compiler.
func expBranchRef(x float64, fma bool) float64 {
	nf := math.RoundToEven(float64(expLog2e * x)) // CVTSD2SL under round-to-nearest-even
	var r float64
	if fma {
		r = math.FMA(-nf, expLn2U, x)
		r = math.FMA(-nf, expLn2L, r)
	} else {
		r = x - float64(nf*expLn2U)
		r = r - float64(nf*expLn2L)
	}
	r = float64(r * 0.0625)
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		if fma {
			p = math.FMA(p, r, c)
		} else {
			p = float64(p*r) + c
		}
	}
	r = float64(r * p)
	for k := 0; k < 4; k++ {
		t := r + 2
		if fma && k == 3 {
			r = math.FMA(t, r, 1)
		} else {
			r = float64(r * t)
		}
	}
	if !fma {
		r = r + 1
	}
	return float64(r * math.Float64frombits(uint64(int64(nf)+1023)<<52))
}

// expInputs returns the arguments the exp tests run: n spread uniformly
// over (-708, 0] — every softmax argument the lanes take — and n/8 over
// (-708, 708), plus the ends of the lanes' domain, signed zeros and
// tinies, the witness, and the half-way points where n = round(x·log2e)
// changes with their neighbours.
func expInputs(n int) []float64 {
	const hi = 707.9999999999999
	xs := []float64{-hi, hi, math.Nextafter(-hi, 0), math.Nextafter(hi, 0), 0, math.Copysign(0, -1), 1e-300, -1e-300}
	for _, x := range expWitness {
		xs = append(xs, x, -x)
	}
	for k := -1021.5; k <= 1021.5; k += 37 {
		h := k / expLog2e
		xs = append(xs, h, math.Nextafter(h, 0), math.Nextafter(h, -1000))
	}
	r := &testRand{s: 97}
	uniform := func() float64 { return float64(r.next()>>11) / (1 << 53) }
	for i := 0; i < n; i++ {
		xs = append(xs, -hi*uniform())
	}
	for i := 0; i < n/8; i++ {
		xs = append(xs, hi*(2*uniform()-1))
	}
	return xs
}

// TestExpMatchesMathExp pins the exp lanes to math.Exp, and each assembly
// branch to its Go transcription — so the branch math.Exp does not take
// on this machine is pinned too: on an FMA machine the MULSD/SUBSD lanes
// are held to the non-FMA sequence, which math.Exp cannot check here.
func TestExpMatchesMathExp(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 14
	}
	in := expInputs(n)
	t.Logf("exp=%s", ExpKernel())
	if !cpuHasAVX() {
		t.Skip("no AVX: math.Exp is the only exp on this machine")
	}
	branches := map[string]bool{"sse2": false}
	if cpuHasFMA() {
		branches["fma"] = true
	}
	if _, ok := branches[expName]; !ok {
		t.Fatalf("exp=%s on an AVX machine: neither branch agreed with math.Exp on the witness", expName)
	}
	for i := 0; i+4 <= len(in); i += 4 {
		x := [4]float64(in[i : i+4])
		for name, fma := range branches {
			got := x
			expLanesAVX(&got, fma)
			for lane, v := range x {
				want := expBranchRef(v, fma)
				if name == expName {
					if e := math.Exp(v); want != e {
						t.Fatalf("exp(%v): %s transcription %v (%016x), math.Exp %v (%016x)", v, name, want, math.Float64bits(want), e, math.Float64bits(e))
					}
				}
				if math.Float64bits(got[lane]) != math.Float64bits(want) {
					t.Fatalf("exp(%v): %s lane %d = %v (%016x), transcription %v (%016x)", v, name, lane, got[lane], math.Float64bits(got[lane]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestExpWitnessSeparatesBranches: every witness argument tells math.Exp's
// two branches apart, and math.Exp returns one of them, so the init check
// can install neither the wrong branch nor a sequence math no longer runs.
func TestExpWitnessSeparatesBranches(t *testing.T) {
	for _, x := range expWitness {
		f, s := expBranchRef(x, true), expBranchRef(x, false)
		if f == s {
			t.Errorf("witness %v: both branches give %v", x, f)
		}
		if e := math.Exp(x); e != f && e != s {
			t.Errorf("witness %v: math.Exp %v is neither branch (fma %v, sse2 %v)", x, e, f, s)
		}
	}
}
