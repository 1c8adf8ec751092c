package tensor

import "math"

// expRowAVX, expLanesAVX and cpuHasFMA are in exp_amd64.s.

//go:noescape
func expRowAVX(row []float32, maxv float64, softmax, fma bool, sum float64) (n int, s float64)

//go:noescape
func expLanesAVX(x *[4]float64, fma bool)

func cpuHasFMA() bool

// expFMA is the branch of math.Exp the assembly runs.
var expFMA bool

// expWitness holds inputs on which math.Exp's two amd64 branches return
// different bits (TestExpWitnessSeparatesBranches).
var expWitness = [4]float64{-436.85582961660896, -102.96812530861719, -54.52867827751178, -319.2893284174762}

// The branch is math's own choice, useFMA = HasAVX && HasFMA, from the
// same CPUID/XGETBV bits. math reads them through internal/cpu, which
// GODEBUG=cpu.fma=off (or a math package whose sequence changed) can take
// away from under this probe, so a branch is installed only once it agrees
// with math.Exp on the witness; if neither does, math.Exp itself runs.
func init() {
	if !cpuHasAVX() {
		return
	}
	for _, fma := range []bool{cpuHasFMA(), false} {
		x := expWitness
		expLanesAVX(&x, fma)
		agree := true
		for i, w := range expWitness {
			agree = agree && x[i] == math.Exp(w)
		}
		if agree {
			expRow, expFMA, expName = expRowWide, fma, "sse2"
			if fma {
				expName = "fma"
			}
			return
		}
	}
}

// expRowWide runs the assembly over the row, four lanes at a time, up to
// the first block of four holding an argument outside |x| < 708 — where
// archExp leaves its normal path (denormal, underflow, Inf, NaN) — and
// math.Exp over that block and the ragged tail; then the assembly again.
// The sum is one i-ascending chain through both.
func expRowWide(row []float32, maxv float64, softmax bool) float64 {
	var sum float64
	for i := 0; i < len(row); {
		var n int
		n, sum = expRowAVX(row[i:], maxv, softmax, expFMA, sum)
		i += n
		for end := min(i+4, len(row)); i < end; i++ {
			sum += expAt(row, i, maxv, softmax)
		}
	}
	return sum
}
