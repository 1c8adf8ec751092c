package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// sameFloat is equality on float32 bits with NaNs compared by class. The
// payload of NaN×NaN (and NaN+NaN) is that of whichever operand the
// instruction names first, i.e. the compiler's register allocation, not
// the algorithm, so no test may pin it: in a coverage-instrumented (-fuzz)
// build rowKernelPortable's own tile loop and tail loop disagree (x =
// ffff3030 against w = ffff3130 gives ffff3130 in columns 0-199 and
// ffff3030 in columns 200-206 of a 207-wide row). The assembly loads w as
// the multiply's first source, which is what a normal build of the
// portable kernel does, so there even the payloads agree.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

const (
	kernelGuard    = 3 // odd, so out is never 32-byte aligned with its buffer
	kernelSentinel = float32(-12345.678)
)

// checkRowKernel runs the selected row kernel, the same kernel split into
// a call and a continuation at the middle input, and the portable one on
// the same inputs, each into its own guarded buffer, and fails on the
// first element that differs or guard that was written.
func checkRowKernel(t testing.TB, label string, x, w []float32, n, stride int) {
	t.Helper()
	run := func(kernel func(out, x, w []float32, stride int, cont bool)) []float32 {
		buf := make([]float32, n+2*kernelGuard)
		for i := range buf {
			buf[i] = kernelSentinel
		}
		kernel(buf[kernelGuard:kernelGuard+n:kernelGuard+n], x, w, stride, false)
		return buf
	}
	split := func(out, x, w []float32, stride int, _ bool) {
		h := len(x) / 2
		rowKernel(out, x[:h], w, stride, false)
		if h < len(x) {
			rowKernel(out, x[h:], w[h*stride:], stride, true)
		}
	}
	want := run(rowKernelPortable)
	for name, got := range map[string][]float32{"": run(rowKernel), " split": run(split)} {
		for i := range got {
			c := i - kernelGuard
			if c < 0 || c >= n {
				if got[i] != kernelSentinel {
					t.Fatalf("%s%s: k=%d n=%d stride=%d: guard at column %d overwritten with %v", label, name, len(x), n, stride, c, got[i])
				}
				continue
			}
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s%s: k=%d n=%d stride=%d: column %d = %v (%08x), portable kernel %v (%08x)", label, name, len(x), n, stride, c,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestRowKernelMatchesPortable pins the row kernel this machine selected
// (the AVX assembly on amd64) to the portable Go kernel, element for
// element, over every tile width the assembly has (64, 32, 8 and the
// recomputed ragged tail), strided and unaligned operands, and the inputs
// where the zero skip and IEEE special values are observable.
func TestRowKernelMatchesPortable(t *testing.T) {
	if Kernel() == "portable" {
		t.Log("kernel=portable: no assembly on this machine, comparing the portable kernel with itself")
	}
	r := &testRand{s: 41}
	random := func(n int, zeroFrac float64) []float32 {
		v := New(1, n)
		fillRandom(v, r, zeroFrac)
		return v.Data
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	subnormal := math.Float32frombits(0x00000001)
	negZero := float32(math.Copysign(0, -1))

	ns := []int{64, 130, 167, 176}
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	for _, k := range []int{0, 1, 3, 64, 176} {
		for _, n := range ns {
			// Dense: stride == n, the MatVec / MatMulRange shape.
			checkRowKernel(t, "dense", random(k, 0.25), random(k*n, 0.1), n, n)

			// Strided: n columns starting at a non-zero offset of rows that
			// are stride apart, operands unaligned sub-slices — the shape of
			// the attention value mix (x = scores, w = V.Data[off:]).
			stride := n + 1 + k%7
			off := 1 + n%5
			w := random(off+k*stride, 0.1)
			x := random(k+1, 0.25)
			checkRowKernel(t, "strided", x[1:], w[off:], n, stride)
		}
	}

	for _, n := range []int{1, 7, 8, 9, 16, 31, 32, 33, 40, 64, 72, 96, 104, 130, 167, 176} {
		const k = 12
		// ±0 inputs in front of Inf/NaN weights: a skipped term contributes
		// nothing, an unskipped one makes the whole column NaN.
		w := random(k*n, 0)
		x := random(k, 0)
		x[2], x[5] = 0, negZero
		for c := 0; c < n; c++ {
			w[2*n+c], w[5*n+c] = inf, nan
		}
		checkRowKernel(t, "zero-skip", x, w, n, n)
		for _, v := range rowOf(x, w, n) {
			if v != v || math.IsInf(float64(v), 0) {
				t.Fatalf("n=%d: a ±0 input was not skipped: %v", n, rowOf(x, w, n))
			}
		}

		// Non-finite and subnormal inputs are NOT skipped.
		for _, special := range []float32{inf, -inf, nan, subnormal, -subnormal} {
			x := random(k, 0.2)
			x[k/2] = special
			checkRowKernel(t, "special-input", x, random(k*n, 0.1), n, n)
		}

		// One special weight per tile boundary: the first and last column
		// of every eight-wide vector, so a lane, tile or overlap mistake
		// moves a NaN or Inf into a neighbouring column.
		w = random(k*n, 0)
		for c := 0; c < n; c++ {
			switch c % 8 {
			case 0:
				w[(c%k)*n+c] = inf
			case 7:
				w[(c%k)*n+c] = nan
			}
		}
		if n > 1 {
			w[n-1], w[n+n-2] = -inf, subnormal
		}
		checkRowKernel(t, "tile-boundary", random(k, 0), w, n, n)
	}
}

// TestRowKernelContinuation pins the continuation entry: a sum split at
// any input into one call and one continuation — or into three pieces —
// leaves the bits of the single call over all inputs, under the selected
// kernel and the portable one alike, for widths on both sides of the
// eight-column vector (a continued ragged tail goes to the portable
// kernel), strided operands, ±0 inputs in front of Inf/NaN weights, and
// an all-zero first piece (attention scores that underflowed).
func TestRowKernelContinuation(t *testing.T) {
	r := &testRand{s: 47}
	random := func(n int, zeroFrac float64) []float32 {
		v := New(1, n)
		fillRandom(v, r, zeroFrac)
		return v.Data
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	kernels := map[string]func(out, x, w []float32, stride int, cont bool){
		Kernel(): rowKernel, "portable": rowKernelPortable,
	}
	for _, n := range []int{1, 2, 7, 8, 9, 16, 23, 32, 64, 72, 167} {
		for _, pad := range []int{0, 5} {
			const k = 13
			stride := n + pad
			x := random(k, 0.2)
			w := random(pad+k*stride, 0.1)[pad:]
			x[3], x[9] = 0, negZero
			for c := 0; c < n; c++ {
				w[3*stride+c], w[9*stride+c] = inf, nan
			}
			w[6*stride+n/2] = inf // a live Inf: the column saturates and stays so
			cases := map[string][]float32{"mixed": x, "zero-head": append(make([]float32, 5), x[5:]...)}
			for label, x := range cases {
				want := make([]float32, n)
				rowKernelPortable(want, x, w, stride, false)
				for name, kernel := range kernels {
					for s1 := 0; s1 <= k; s1++ {
						for _, s2 := range []int{s1, (s1 + k + 1) / 2} { // two pieces, three pieces
							got := make([]float32, n+1)
							got[n] = kernelSentinel
							out := got[:n:n]
							kernel(out, x[:s1], w, stride, false)
							if s1 < s2 {
								kernel(out, x[s1:s2], w[s1*stride:], stride, true)
							}
							if s2 < k {
								kernel(out, x[s2:], w[s2*stride:], stride, true)
							}
							if got[n] != kernelSentinel {
								t.Fatalf("%s %s n=%d stride=%d split %d/%d: wrote past out", name, label, n, stride, s1, s2)
							}
							for c := range want {
								if !sameFloat(out[c], want[c]) {
									t.Fatalf("%s %s n=%d stride=%d split %d/%d: column %d = %v (%08x), one call %v (%08x)",
										name, label, n, stride, s1, s2, c, out[c], math.Float32bits(out[c]), want[c], math.Float32bits(want[c]))
								}
							}
						}
					}
				}
			}
		}
	}
	// The public entry: no inputs continue nothing and read no weights.
	out := []float32{1, 2, 3}
	MatVecStridedCont(out, nil, nil, 3)
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("empty continuation changed out: %v", out)
	}
}

// rowOf returns the selected kernel's output for one dense row.
func rowOf(x, w []float32, n int) []float32 {
	out := make([]float32, n)
	MatVecStrided(out, x, w, n)
	return out
}

// TestRowKernelMatMulRange runs the GEMM under both kernels: rows inside
// [r0, r1) agree and every other row of out is untouched.
func TestRowKernelMatMulRange(t *testing.T) {
	r := &testRand{s: 43}
	const rows, k, n = 9, 64, 167
	a, b := New(rows, k), New(k, n)
	fillRandom(a, r, 0.25)
	fillRandom(b, r, 0.1)
	run := func(kernel func(out, x, w []float32, stride int, cont bool), r0, r1 int) *Tensor {
		saved := rowKernel
		rowKernel = kernel
		defer func() { rowKernel = saved }()
		out := New(rows, n)
		out.Fill(kernelSentinel)
		MatMulRange(out, a, b, r0, r1, 1)
		return out
	}
	selected := rowKernel
	for _, rr := range [][2]int{{0, rows}, {2, 5}, {8, 9}, {4, 4}} {
		got, want := run(selected, rr[0], rr[1]), run(rowKernelPortable, rr[0], rr[1])
		for i := 0; i < rows; i++ {
			for c, v := range got.Row(i) {
				if i < rr[0] || i >= rr[1] {
					if v != kernelSentinel {
						t.Fatalf("rows [%d,%d): untouched row %d col %d was written (%v)", rr[0], rr[1], i, c, v)
					}
				} else if !sameFloat(v, want.At(i, c)) {
					t.Fatalf("rows [%d,%d): row %d col %d = %v, portable kernel %v", rr[0], rr[1], i, c, v, want.At(i, c))
				}
			}
		}
	}
}

// TestMatVecStridedRejectsShortWeights: the assembly has no bounds checks
// of its own, so the one entry point must refuse operands it would read
// past.
func TestMatVecStridedRejectsShortWeights(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	out, x := make([]float32, 16), make([]float32, 4)
	mustPanic("short w", func() { MatVecStrided(out, x, make([]float32, 3*20+15), 20) })
	mustPanic("stride < cols", func() { MatVecStrided(out, x, make([]float32, 64), 15) })
	MatVecStrided(out, x, make([]float32, 3*20+16), 20) // exactly enough
	MatVecStrided(out, nil, nil, 16)                    // k = 0 reads no weights
	MatVecStrided(nil, x, nil, 0)
}

// FuzzRowKernel feeds both kernels raw bit patterns — every NaN payload,
// subnormal and signed zero the byte stream can spell — at arbitrary k, n,
// stride and operand offset.
func FuzzRowKernel(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80}, []byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f}, uint8(9), uint8(3))
	f.Add([]byte{}, []byte{1, 2, 3, 4}, uint8(167), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}, []byte{}, uint8(64), uint8(20))
	f.Fuzz(func(t *testing.T, xb, wb []byte, cols, pad uint8) {
		k := len(xb) / 4
		if k > 64 {
			k = 64
		}
		n := int(cols)
		stride := n + int(pad)%17
		off := int(pad) % 5
		x := make([]float32, k)
		for p := range x {
			x[p] = math.Float32frombits(binary.LittleEndian.Uint32(xb[4*p:]))
		}
		w := make([]float32, off+k*stride)
		for i := range w {
			if len(wb) >= 4 {
				// Cycle the weight bytes at a byte offset that drifts, so a
				// short input still gives every column a different pattern.
				j := (i*5 + i/7) % (len(wb) - 3)
				w[i] = math.Float32frombits(binary.LittleEndian.Uint32(wb[j:]))
			}
		}
		checkRowKernel(t, fmt.Sprintf("fuzz off=%d", off), x, w[off:], n, stride)
	})
}
