package tensor

import "math"

// siluMul is the one SwiGLU activation pass behind SiLUMul: four lanes of
// the exp assembly where expRow runs them (set once at init with expRow,
// exp_amd64.go), siluMulPortable everywhere else. Both produce SiLU's
// bits, so nothing chooses between them.
var siluMul = siluMulPortable

// SiLU returns x·sigmoid(x) = x / (1 + e^-x), computed in float64 with
// math.Exp and rounded once to float32: the one SiLU expression every
// SiLU pass is pinned to.
func SiLU(x float32) float32 {
	return float32(float64(x) / (1 + math.Exp(-float64(x))))
}

// SiLUMul writes act[i] = SiLU(gate[i]) * up[i], the float32 product of
// the rounded activation and the up projection: SwiGLU's elementwise
// step. The three slices must have one length; act may be gate or up
// itself.
func SiLUMul(act, gate, up []float32) {
	if len(act) != len(gate) || len(up) != len(gate) {
		panic("tensor: SiLUMul length mismatch")
	}
	siluMul(act, gate, up)
}

// siluMulPortable is SiLUMul element by element: the reference every
// faster pass is pinned to.
func siluMulPortable(act, gate, up []float32) {
	for i, g := range gate {
		act[i] = SiLU(g) * up[i]
	}
}
