package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

// checkedTol mirrors abft.DefaultTol without importing it: a relative
// tolerance of 4·sqrt(k) float32 ulps for a length-k reduction.
func checkedTol(k int) float64 {
	return 4 * math.Sqrt(float64(k)) / (1 << 24)
}

// TestMatMulCheckedBitIdentical is the metamorphic property: adding the
// checksum verification must not change a single output bit relative to
// the unchecked kernel, for random shapes and worker counts, and a clean
// multiply must never be flagged.
func TestMatMulCheckedBitIdentical(t *testing.T) {
	f := func(seed uint64, mr, kr, nr, wr uint8) bool {
		m, k, n := int(mr%40)+1, int(kr%96)+1, int(nr%40)+1
		workers := int(wr%8) + 1
		src := prng.New(seed)
		a := randTensor(src, m, k)
		b := randTensor(src, k, n)

		want := New(m, n)
		MatMul(want, a, b)

		got := New(m, n)
		bad := MatMulChecked(got, a, b, workers, checkedTol(k))
		if bad != nil {
			t.Logf("clean multiply flagged rows %v (m=%d k=%d n=%d)", bad, m, k, n)
			return false
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Logf("output differs at %d: %g vs %g", i, got.Data[i], want.Data[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCheckRowsFlagsEveryDetectableBit replays MatMulChecked's internals
// with a single float32 bit flip injected between the kernel and the
// verification, for every one of the 32 bit positions. The oracle is the
// flip's own magnitude against the tolerance, with a 2x guard band on
// each side so kernel accumulation noise cannot turn the predicate into
// a tautology: flips at least twice the threshold must be flagged, flips
// below half of it must not, and flips inside the ambiguous band are
// exercised but not asserted on.
func TestCheckRowsFlagsEveryDetectableBit(t *testing.T) {
	const m, k, n = 4, 64, 48
	src := prng.New(41)
	a := randTensor(src, m, k)
	b := randTensor(src, k, n)
	clean := New(m, n)
	MatMulP(clean, a, b, 2)
	cs := NewChecksums(b)
	tol := checkedTol(k)

	const row, col = 1, 5
	_, _, scale := cs.CheckRow(a.Row(row), clean.Row(row), tol)
	threshold := tol * scale

	asserted := 0
	for bit := 0; bit < 32; bit++ {
		out := clean.Clone()
		orig := out.At(row, col)
		flipped := math.Float32frombits(math.Float32bits(orig) ^ (1 << bit))
		out.Set(row, col, flipped)

		bad := cs.badRows(a, out, tol)
		flagged := len(bad) == 1 && bad[0] == row
		if len(bad) > 0 && !flagged {
			t.Fatalf("bit %d: flagged rows %v, corrupted only row %d", bit, bad, row)
		}

		delta := math.Abs(float64(flipped) - float64(orig))
		switch {
		case math.IsNaN(delta) || math.IsInf(delta, 0):
			if !flagged {
				t.Errorf("bit %d: %g -> %v not flagged", bit, orig, flipped)
			}
			asserted++
		case delta > 2*threshold:
			if !flagged {
				t.Errorf("bit %d: delta %.3g above 2x threshold %.3g not flagged", bit, delta, threshold)
			}
			asserted++
		case delta < threshold/2:
			if flagged {
				t.Errorf("bit %d: delta %.3g below half threshold %.3g flagged", bit, delta, threshold)
			}
			asserted++
		}
	}
	// With unit-scale normal data the ambiguous band is a narrow sliver of
	// mantissa positions; most of the 32 bits must have decisive verdicts.
	if asserted < 28 {
		t.Fatalf("only %d/32 bit positions had decisive verdicts", asserted)
	}
}

func TestCheckRowNonFiniteSemantics(t *testing.T) {
	src := prng.New(7)
	b := randTensor(src, 8, 6)
	cs := NewChecksums(b)
	x := make([]float32, 8)
	for i := range x {
		x[i] = float32(src.NormFloat64())
	}
	out := make([]float32, 6)
	for j := 0; j < 6; j++ {
		var s float32
		for p := range x {
			s += x[p] * b.At(p, j)
		}
		out[j] = s
	}

	if ok, _, _ := cs.CheckRow(x, out, checkedTol(8)); !ok {
		t.Fatal("clean row rejected")
	}

	// NaN in the output with finite inputs: hard failure, infinite deviation.
	bad := append([]float32(nil), out...)
	bad[2] = float32(math.NaN())
	ok, dev, _ := cs.CheckRow(x, bad, checkedTol(8))
	if ok || !math.IsInf(dev, 1) {
		t.Fatalf("NaN output: ok=%v dev=%g, want fail with +Inf", ok, dev)
	}
	bad[2] = float32(math.Inf(-1))
	if ok, _, _ := cs.CheckRow(x, bad, checkedTol(8)); ok {
		t.Fatal("Inf output passed")
	}

	// NaN on the input side: the corruption predates this GEMM, so the
	// check passes vacuously rather than misattributing the fault here.
	nx := append([]float32(nil), x...)
	nx[0] = float32(math.NaN())
	if ok, dev, _ := cs.CheckRow(nx, bad, checkedTol(8)); !ok || dev != 0 {
		t.Fatalf("non-finite input: ok=%v dev=%g, want vacuous pass", ok, dev)
	}

	// All-zero input floors the scale at 1, so the threshold stays
	// meaningful for an absolute comparison.
	zero := make([]float32, 8)
	zout := make([]float32, 6)
	if ok, _, scale := cs.CheckRow(zero, zout, checkedTol(8)); !ok || scale != 1 {
		t.Fatalf("zero row: ok=%v scale=%g, want pass with scale floor 1", ok, scale)
	}
	zout[0] = 1
	if ok, _, _ := cs.CheckRow(zero, zout, checkedTol(8)); ok {
		t.Fatal("nonzero output from zero input passed")
	}
}

// checkRowRef is the check as three loops, one chain after another: the
// reference CheckRow and every row of CheckSpan are pinned to bit for bit.
func checkRowRef(c Checksums, x, out []float32, tol float64) (ok bool, dev, scale float64) {
	var expected, sc float64
	for p, xv := range x {
		fx := float64(xv)
		expected += float64(fx * c.Sum[p])
		sc += float64(math.Abs(fx) * c.Abs[p])
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

// sameBits reports whether two check results agree bit for bit. A NaN
// scale (an input row carrying NaN, which passes vacuously) matches any
// NaN: which NaN an add of two NaNs keeps depends on operand order, which
// no result of the check reads.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkSpanAgainstRows runs CheckSpan over rows rows of x and out, under
// the init-selected lanes and the portable ones, and requires every row's
// (ok, dev, scale) to be checkRowRef's and CheckRow's for that row alone.
func checkSpanAgainstRows(t *testing.T, name string, cs Checksums, x, out []float32, rows int, tol float64) {
	t.Helper()
	k, n := len(cs.Sum), len(out)/rows
	for _, kernel := range []struct {
		name  string
		lanes func(x, out []float32, k, n int, sum, abs []float64) lanes
	}{{"selected", checkRow4}, {"portable", checkRow4Portable}} {
		saved := checkRow4
		checkRow4 = kernel.lanes
		ok := make([]bool, rows)
		dev, scale := make([]float64, rows), make([]float64, rows)
		cs.CheckSpan(x, out, tol, ok, dev, scale)
		checkRow4 = saved
		for i := range rows {
			xi, oi := x[i*k:(i+1)*k], out[i*n:(i+1)*n]
			wok, wdev, wscale := checkRowRef(cs, xi, oi, tol)
			if ok[i] != wok || !sameBits(dev[i], wdev) || !sameBits(scale[i], wscale) {
				t.Fatalf("%s %s: row %d of %d (k=%d n=%d): span (%v, %g, %g), reference (%v, %g, %g)",
					name, kernel.name, i, rows, k, n, ok[i], dev[i], scale[i], wok, wdev, wscale)
			}
			rok, rdev, rscale := cs.CheckRow(xi, oi, tol)
			if rok != wok || !sameBits(rdev, wdev) || !sameBits(rscale, wscale) {
				t.Fatalf("%s: CheckRow row %d (k=%d n=%d): (%v, %g, %g), reference (%v, %g, %g)",
					name, i, k, n, rok, rdev, rscale, wok, wdev, wscale)
			}
		}
	}
}

// TestCheckSpanMatchesCheckRow: every row count from one to nine (two
// full lane groups, and each tail), inputs wider and narrower than the
// outputs and not multiples of four, clean products, corrupted outputs,
// NaN and ±Inf on either side, an expected mass that overflows float64
// and all-zero rows — CheckSpan's per-row results are the one-row
// reference's bit for bit.
func TestCheckSpanMatchesCheckRow(t *testing.T) {
	src := prng.New(47)
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, shape := range []struct{ k, n int }{{64, 176}, {176, 64}, {64, 64}, {13, 9}, {5, 3}, {3, 7}, {1, 1}, {4, 2}} {
		b := randTensor(src, shape.k, shape.n)
		cs := NewChecksums(b)
		// huge has one entry large enough that x·Sum overflows float64.
		huge := Checksums{Sum: append([]float64(nil), cs.Sum...), Abs: cs.Abs}
		huge.Sum[shape.k-1] = math.MaxFloat64 / 2
		for rows := 1; rows <= 9; rows++ {
			a := randTensor(src, rows, shape.k)
			a.Data[len(a.Data)-1] = 4 // the last row's overflow factor under huge
			out := New(rows, shape.n)
			MatMul(out, a, b)
			tol := checkedTol(shape.k)
			name := fmt.Sprintf("k=%d n=%d rows=%d", shape.k, shape.n, rows)
			checkSpanAgainstRows(t, name+" clean", cs, a.Data, out.Data, rows, tol)
			checkSpanAgainstRows(t, name+" overflow", huge, a.Data, out.Data, rows, tol)

			// Corrupt row r in a way chosen by r: a flipped output, a NaN
			// or Inf output, a NaN or Inf input, an all-zero row.
			for r := range rows {
				xr, or := a.Row(r), out.Row(r)
				switch r % 7 {
				case 0:
					or[len(or)/2] *= 1 << 20
				case 1:
					or[0] = nan
				case 2:
					or[len(or)-1] = -inf
				case 3:
					xr[len(xr)/2] = nan
				case 4:
					xr[0] = inf
					or[0] = -inf
				case 5:
					clear(xr)
					clear(or)
				case 6:
					clear(xr)
					or[0] = 1
				}
			}
			checkSpanAgainstRows(t, name+" corrupted", cs, a.Data, out.Data, rows, tol)
		}
	}
}

// FuzzCheckSpan feeds raw bit patterns as inputs, outputs and check
// vectors: CheckSpan's rows must be the one-row reference's bit for bit
// under both lane kernels.
func FuzzCheckSpan(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80}, []byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f}, uint8(5), uint8(9), uint8(3))
	f.Add([]byte{1, 2, 3, 4}, []byte{}, uint8(4), uint8(1), uint8(6))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}, []byte{0, 0, 0, 0}, uint8(8), uint8(20), uint8(17))
	f.Fuzz(func(t *testing.T, xb, ob []byte, rowsB, kB, nB uint8) {
		rows, k, n := int(rowsB)%9+1, int(kB)%40+1, int(nB)%40+1
		word := func(b []byte, i int) uint32 {
			if len(b) < 4 {
				return uint32(i)
			}
			j := (i*5 + i/7) % (len(b) - 3)
			return binary.LittleEndian.Uint32(b[j:])
		}
		x, out := make([]float32, rows*k), make([]float32, rows*n)
		for i := range x {
			x[i] = math.Float32frombits(word(xb, i))
		}
		for i := range out {
			out[i] = math.Float32frombits(word(ob, i))
		}
		cs := Checksums{Sum: make([]float64, k), Abs: make([]float64, k)}
		for p := range k {
			cs.Sum[p] = float64(math.Float32frombits(word(ob, 3*p+1)))
			cs.Abs[p] = math.Abs(float64(math.Float32frombits(word(xb, 3*p+2))))
		}
		checkSpanAgainstRows(t, "fuzz", cs, x, out, rows, checkedTol(k))
	})
}
