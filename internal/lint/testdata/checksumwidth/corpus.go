//llmfi:scope checksumwidth

// Package checksumwidth is the linter corpus for the checksumwidth
// analyzer: in checksum-path functions (name contains Checksum, Checked,
// CheckRow or CheckSpan, with its first letter in either case), loop
// accumulation must be float64.
package checksumwidth

// RowChecksum accumulates correctly in float64 alongside a float32
// accumulator that is flagged.
func RowChecksum(xs []float32) float64 {
	var sum float64
	var bad float32
	for _, x := range xs {
		sum += float64(x)
		bad += x // want `float32 checksum accumulator`
	}
	_ = bad
	return sum
}

// CheckRowDelta hides the accumulation behind a plain assignment
// (d = d + x): still flagged.
func CheckRowDelta(xs []float32) float32 {
	var d float32
	for i := 0; i < len(xs); i++ {
		d = d + xs[i] // want `float32 checksum accumulator`
	}
	return d
}

// CheckSpanNarrow runs four rows' chains side by side, one of them in
// float32: flagged like any other checksum accumulator.
func CheckSpanNarrow(x []float32, k int) [4]float64 {
	var e0, e1, e2 float64
	var e3 float32
	for p := 0; p < k; p++ {
		e0 += float64(x[p])
		e1 += float64(x[k+p])
		e2 += float64(x[2*k+p])
		e3 += x[3*k+p] // want `float32 checksum accumulator`
	}
	return [4]float64{e0, e1, e2, float64(e3)}
}

// checkRow4Narrow is an unexported kernel of the same path: the rule
// covers it too.
func checkRow4Narrow(out []float32) float32 {
	var s float32
	for _, v := range out {
		s = s + v // want `float32 checksum accumulator`
	}
	return s
}

// MatMulCheckedScale narrows only outside any loop: the rule targets
// running sums, not single casts.
func MatMulCheckedScale(xs []float32) float32 {
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	scaled := float32(sum)
	scaled += 1
	return scaled
}

// kernelDot is not a checksum-path function, so its float32 accumulator
// is the kernel's business (that is where the eps32 noise the tolerance
// absorbs comes from).
func kernelDot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ChecksumSuppressed demonstrates an honored suppression.
func ChecksumSuppressed(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x //llmfi:allow checksumwidth corpus case: an honored suppression
	}
	return s
}
