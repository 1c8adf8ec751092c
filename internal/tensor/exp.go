package tensor

import "math"

// expRow is the one exp pass behind SoftmaxRow and logSumExp: four lanes
// of math.Exp's own amd64 instruction sequence where the CPU runs the
// assembly (set once at init, exp_amd64.go), expRowPortable everywhere
// else. Both produce math.Exp's bits, so nothing chooses between them: no
// flag, option or build tag, and only the exp tests assign these.
var (
	expRow  = expRowPortable
	expName = "portable"
)

// ExpKernel names the exp pass this process runs: "fma" or "sse2" for the
// assembly running math.Exp's FMA or MULSD/SUBSD branch, "portable" for
// math.Exp itself. The bits follow math.Exp, which picks its branch by
// CPU — so softmax bits already differ between FMA and non-FMA machines
// (and arm64) — and this kernel keeps exactly that dependence.
func ExpKernel() string { return expName }

// expRowPortable returns the i-ascending float64 sum of e_i = math.Exp(x_i)
// over row (expAt says what x_i is): the reference every faster exp pass
// is pinned to.
func expRowPortable(row []float32, maxv float64, softmax bool) float64 {
	var sum float64
	for i := range row {
		sum += expAt(row, i, maxv, softmax)
	}
	return sum
}

// expAt returns e = math.Exp(x) for entry i of row. For a softmax, x is
// float64(row[i] - float32(maxv)), the difference taken in float32, and
// float32(e) overwrites row[i]; for a log-sum-exp x is float64(row[i]) -
// maxv and row is only read.
func expAt(row []float32, i int, maxv float64, softmax bool) float64 {
	if !softmax {
		return math.Exp(float64(row[i]) - maxv)
	}
	e := math.Exp(float64(row[i] - float32(maxv)))
	row[i] = float32(e)
	return e
}
