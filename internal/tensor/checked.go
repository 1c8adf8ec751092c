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
// absolute threshold). It is CheckSpan's one-row case.
//
// A non-finite observed checksum from a finite-input row always fails: the
// kernel cannot legitimately produce NaN/Inf from finite inputs and finite
// expected mass. When the *input side* is already non-finite (x carries a
// propagated NaN/Inf, or the expected mass overflows float64) the check
// passes vacuously — the corruption predates this GEMM and blaming it here
// would misattribute the fault.
func (c Checksums) CheckRow(x, out []float32, tol float64) (ok bool, dev, scale float64) {
	return verdict(checkRow1(x, out, c.Sum, c.Abs), tol)
}

// CheckSpan verifies len(ok) rows of out = x·b at once: x holds the rows'
// inputs back to back, len(c.Sum) each, and out their outputs, equally
// wide. Row i's verdict, deviation and scale land in ok[i], dev[i] and
// scale[i], bit for bit what CheckRow returns for that row alone.
//
// Each row's three float64 chains — the expected mass Σ x[p]·Sum[p] and
// the scale Σ |x[p]|·Abs[p], p ascending, and the observed mass Σ out[j],
// j ascending — are CheckRow's own, and a float64 add waits on the one
// before it in its chain, so a lone row costs a chain's length in add
// latencies. CheckSpan spends that wait on other rows: four rows run side
// by side, one per float64 lane (checkRow4), and a row left over runs
// its three chains in one loop (checkRow1). No chain is reordered, so no
// bit moves.
func (c Checksums) CheckSpan(x, out []float32, tol float64, ok []bool, dev, scale []float64) {
	rows, k := len(ok), len(c.Sum)
	if rows == 0 {
		return
	}
	n := len(out) / rows
	if len(x) != rows*k || len(out) != rows*n || len(dev) < rows || len(scale) < rows {
		panic("tensor: CheckSpan shape mismatch")
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		l := checkRow4(x[i*k:(i+4)*k], out[i*n:(i+4)*n], k, n, c.Sum, c.Abs)
		for r := range 4 {
			ok[i+r], dev[i+r], scale[i+r] = verdict(sums{l.exp[r], l.abs[r], l.obs[r]}, tol)
		}
	}
	for ; i < rows; i++ {
		ok[i], dev[i], scale[i] = verdict(checkRow1(x[i*k:(i+1)*k], out[i*n:(i+1)*n], c.Sum, c.Abs), tol)
	}
}

// sums is one row's three checksum chains: the expected output mass, the
// scale and the observed output mass.
type sums struct{ exp, abs, obs float64 }

// verdict is a row's check from its chains (CheckRow).
func verdict(s sums, tol float64) (ok bool, dev, scale float64) {
	scale = s.abs
	if scale < 1 {
		scale = 1
	}
	if !isFinite(s.exp) || !isFinite(scale) {
		return true, 0, scale
	}
	if !isFinite(s.obs) {
		return false, math.Inf(1), scale
	}
	dev = math.Abs(s.obs - s.exp)
	return dev <= tol*scale, dev, scale
}

// checkRow1 runs one row's three chains in one loop while both its input
// and its output have elements left, then the longer side's alone: each
// chain keeps its own order, and the three overlap. Every product is
// rounded on its own (float64(…)), so no host fuses it into the add.
func checkRow1(x, out []float32, sum, abs []float64) sums {
	var s sums
	m := min(len(x), len(out))
	sum, abs = sum[:len(x)], abs[:len(x)]
	for i := 0; i < m; i++ {
		f := float64(x[i])
		s.exp += float64(f * sum[i])
		s.abs += float64(math.Abs(f) * abs[i])
		s.obs += float64(out[i])
	}
	for p := m; p < len(x); p++ {
		f := float64(x[p])
		s.exp += float64(f * sum[p])
		s.abs += float64(math.Abs(f) * abs[p])
	}
	for _, v := range out[m:] {
		s.obs += float64(v)
	}
	return s
}

// lanes is four rows' chains, row r in lane r of each.
type lanes struct{ exp, abs, obs [4]float64 }

// checkRow4 runs four rows' chains side by side: x holds the rows' k
// inputs and out their n outputs, back to back. It is the AVX lanes where
// the CPU and OS support them (set once at init, checked_amd64.go) and
// checkRow4Portable everywhere else; both give the same bits.
var checkRow4 = checkRow4Portable

// checkRow4Portable is checkRow4 in Go: the four rows' chains from
// their start.
func checkRow4Portable(x, out []float32, k, n int, sum, abs []float64) lanes {
	return checkRow4From(lanes{}, x, out, k, n, sum, abs, 0, 0)
}

// checkRow4From continues l's chains over the inputs from p0 and the outputs
// from j0, one element of each of the four rows per step.
func checkRow4From(l lanes, x, out []float32, k, n int, sum, abs []float64, p0, j0 int) lanes {
	x0, x1, x2, x3 := x[:k], x[k:2*k], x[2*k:3*k], x[3*k:4*k]
	e0, e1, e2, e3 := l.exp[0], l.exp[1], l.exp[2], l.exp[3]
	a0, a1, a2, a3 := l.abs[0], l.abs[1], l.abs[2], l.abs[3]
	sum, abs = sum[:k], abs[:k]
	for p := p0; p < k; p++ {
		s, a := sum[p], abs[p]
		f0, f1, f2, f3 := float64(x0[p]), float64(x1[p]), float64(x2[p]), float64(x3[p])
		e0 += float64(f0 * s)
		e1 += float64(f1 * s)
		e2 += float64(f2 * s)
		e3 += float64(f3 * s)
		a0 += float64(math.Abs(f0) * a)
		a1 += float64(math.Abs(f1) * a)
		a2 += float64(math.Abs(f2) * a)
		a3 += float64(math.Abs(f3) * a)
	}
	o0, o1, o2, o3 := out[:n], out[n:2*n], out[2*n:3*n], out[3*n:4*n]
	s0, s1, s2, s3 := l.obs[0], l.obs[1], l.obs[2], l.obs[3]
	for j := j0; j < n; j++ {
		s0 += float64(o0[j])
		s1 += float64(o1[j])
		s2 += float64(o2[j])
		s3 += float64(o3[j])
	}
	return lanes{
		exp: [4]float64{e0, e1, e2, e3},
		abs: [4]float64{a0, a1, a2, a3},
		obs: [4]float64{s0, s1, s2, s3},
	}
}

// MatMulChecked computes out = a·b through the same row kernel as
// MatMulP — the result is bit-identical to MatMul for every worker count —
// and then verifies every output row against float64 checksums of b
// (CheckSpan), returning the indices of rows that violate the relative
// tolerance (nil when every row checks out). It is a benchmark of the
// check's cost beside the product's; the model checks its rows through
// its LinearChecker instead.
func MatMulChecked(out, a, b *Tensor, workers int, tol float64) []int {
	MatMulP(out, a, b, workers)
	return NewChecksums(b).badRows(a, out, tol)
}

// badRows checks every row of out = a·b at once (CheckSpan) and returns
// the indices of the rows that fail, nil when none does.
func (c Checksums) badRows(a, out *Tensor, tol float64) []int {
	ok := make([]bool, a.Rows)
	dev, scale := make([]float64, a.Rows), make([]float64, a.Rows)
	c.CheckSpan(a.Data, out.Data, tol, ok, dev, scale)
	var bad []int
	for i, v := range ok {
		if !v {
			bad = append(bad, i)
		}
	}
	return bad
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
