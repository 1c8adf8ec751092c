package tensor

import "math"

// Checksums holds the ABFT check vectors of a weight matrix b (k×n):
// Sum[p] = Σ_j b[p,j] and Abs[p] = Σ_j |b[p,j]|, both accumulated in
// float64. The checked-GEMM invariant is that for out = x·b the output
// checksum Σ_j out[j] must equal the input-weighted checksum Σ_p x[p]·Sum[p]
// up to float32 accumulation noise; Abs supplies the magnitude scale that
// noise is proportional to (Σ_p |x[p]|·Abs[p] bounds the absolute mass of
// the products the kernel summed). Float64 accumulation keeps the check's
// own rounding error (~eps64 per term) three orders of magnitude below the
// float32 kernel noise it must tolerate, so the tolerance can be derived
// from the kernel alone.
type Checksums struct {
	Sum []float64
	Abs []float64
}

// NewChecksums computes the check vectors of b.
func NewChecksums(b *Tensor) Checksums {
	sum := make([]float64, b.Rows)
	abs := make([]float64, b.Rows)
	n := b.Cols
	for p := 0; p < b.Rows; p++ {
		var s, a float64
		for _, v := range b.Data[p*n : (p+1)*n] {
			fv := float64(v)
			s += fv
			a += math.Abs(fv)
		}
		sum[p] = s
		abs[p] = a
	}
	return Checksums{Sum: sum, Abs: abs}
}

// CheckRow verifies one output row out = x·b against the checksums with
// relative tolerance tol. It returns the verdict plus the measured
// deviation |Σout − Σ_p x[p]·Sum[p]| and the magnitude scale the tolerance
// is relative to (floored at 1 so all-zero rows still have a meaningful
// absolute threshold).
//
// A non-finite observed checksum from a finite-input row always fails: the
// kernel cannot legitimately produce NaN/Inf from finite inputs and finite
// expected mass. When the *input side* is already non-finite (x carries a
// propagated NaN/Inf, or the expected mass overflows float64) the check
// passes vacuously — the corruption predates this GEMM and blaming it here
// would misattribute the fault.
func (c Checksums) CheckRow(x, out []float32, tol float64) (ok bool, dev, scale float64) {
	var expected, sc float64
	for p, xv := range x {
		fx := float64(xv)
		expected += fx * c.Sum[p]
		sc += math.Abs(fx) * c.Abs[p]
	}
	if sc < 1 {
		sc = 1
	}
	if !isFinite(expected) || !isFinite(sc) {
		return true, 0, sc
	}
	var observed float64
	for _, v := range out {
		observed += float64(v)
	}
	if !isFinite(observed) {
		return false, math.Inf(1), sc
	}
	dev = math.Abs(observed - expected)
	return dev <= tol*sc, dev, sc
}

// CheckRows verifies every row of out = a·b, returning the indices of the
// rows whose deviation exceeds tolerance.
func (c Checksums) CheckRows(a, out *Tensor, tol float64) []int {
	var bad []int
	for i := 0; i < a.Rows; i++ {
		if ok, _, _ := c.CheckRow(a.Row(i), out.Row(i), tol); !ok {
			bad = append(bad, i)
		}
	}
	return bad
}

// MatMulChecked computes out = a·b through the same row kernel as
// MatMulP — the result is bit-identical to MatMul for every worker count —
// and then verifies each output row against float64 checksums of b,
// returning the indices of rows that violate the relative tolerance (nil
// when every row checks out).
func MatMulChecked(out, a, b *Tensor, workers int, tol float64) []int {
	MatMulP(out, a, b, workers)
	cs := NewChecksums(b)
	return cs.CheckRows(a, out, tol)
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
