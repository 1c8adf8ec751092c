package tensor

import (
	"fmt"
	"math"
	"testing"
)

// expKernels are the exp passes to hold against each other: the one this
// machine selected and the portable one.
func expKernels() map[string]func(row []float32, maxv float64, softmax bool) float64 {
	return map[string]func(row []float32, maxv float64, softmax bool) float64{
		ExpKernel(): expRow, "portable": expRowPortable,
	}
}

// withExp runs f with expRow set to kernel.
func withExp(kernel func(row []float32, maxv float64, softmax bool) float64, f func()) {
	saved := expRow
	expRow = kernel
	defer func() { expRow = saved }()
	f()
}

// TestSoftmaxSpecialRows pins what SoftmaxRow's doc says a fault can
// leave in a row, under the selected exp pass and the portable one: the
// NaN, ±Inf and empty-maximum cases, and finite rows whose smallest
// entries leave the exp lanes' domain (-708.4 below the maximum gives a
// float64 denormal, -745 below it zero; both are float32 zero).
func TestSoftmaxSpecialRows(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	uniform := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(1) / float32(n)
		}
		return out
	}
	fill := func(n int, v float32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cases := []struct {
		name      string
		row, want []float32
	}{
		{"all-NaN", fill(9, nan), uniform(9)},
		{"NaN+finite", []float32{1, 2, nan, 0.5, 3, -1, 2, 2, 1}, fill(9, nan)},
		{"NaN with +Inf", []float32{1, nan, inf, -inf, inf, 2, nan, 0, 5}, []float32{0, 0, 0.5, 0, 0.5, 0, 0, 0, 0}},
		{"all -Inf", fill(6, -inf), uniform(6)},
		{"NaN and -Inf", []float32{-inf, nan, -inf, nan, nan}, uniform(5)},
		{"single", []float32{2.5}, []float32{1}},
		{"single -Inf", []float32{-inf}, []float32{1}},
		{"single NaN", []float32{nan}, []float32{1}},
		{"±0", []float32{0, negZero, 0, negZero, negZero, 0, 0}, uniform(7)},
		{"-Inf beside finite", []float32{0, -inf, -1, -inf, 2, 1, -inf, -inf}, nil},
		{"far below the max", []float32{0, -708.4, -745, -1, -707.9, -3, -800, -708.4, -2}, nil},
		{"far below, shifted", []float32{1e4, 1e4 - 708.4, 1e4 - 745, 9999, 1e4 - 707.9, 1e4, 1e4 - 745, 1e4 - 708.4, 1e4 - 2}, nil},
	}
	for _, c := range cases {
		want := append([]float32(nil), c.row...)
		softmaxReference(want)
		if c.want != nil {
			for i := range want {
				if !sameFloat(want[i], c.want[i]) {
					t.Fatalf("%s: reference entry %d = %v, the doc says %v", c.name, i, want[i], c.want[i])
				}
			}
		}
		for name, kernel := range expKernels() {
			got := append([]float32(nil), c.row...)
			withExp(kernel, func() { SoftmaxRow(got) })
			for i := range got {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%s (%s): entry %d = %v (%08x), reference %v (%08x)", c.name, name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
		if c.name == "far below the max" {
			for _, i := range []int{1, 2, 6, 7} {
				if want[i] != 0 {
					t.Fatalf("%s: entry %d = %v, want 0", c.name, i, want[i])
				}
			}
		}
	}
}

// softmaxReference is SoftmaxRow with its exp written as the plain
// math.Exp loop: the reference both exp passes are held to.
func softmaxReference(row []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	if math.IsInf(float64(maxv), 0) {
		SoftmaxRow(row) // the ±Inf branches run no exp
		return
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxv))
		row[i] = float32(e)
		sum += e
	}
	if sum == 0 || math.IsNaN(sum) {
		for i := range row {
			row[i] = float32(math.NaN())
		}
		return
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// TestExpRowMatchesPortable runs both exp passes, in both modes, over rows
// of every length up to 41 and 130 (whole blocks of four and a ragged
// tail), with arguments outside the lanes' domain — NaN, ±Inf, far below
// the maximum — placed at every lane of a block, so a block that falls
// back to math.Exp sits first, mid-row and last, and compares every entry
// and the sum bit for bit.
func TestExpRowMatchesPortable(t *testing.T) {
	r := &testRand{s: 53}
	specials := []float32{float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)), -800, -708.4, 1e30}
	lengths := []int{130}
	for n := 0; n <= 41; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for variant := -1; variant < len(specials)*5; variant++ {
			row := make([]float32, n)
			for i := range row {
				row[i] = 30 * r.float()
			}
			if variant >= 0 && n > 0 {
				row[(variant/len(specials)*3)%n] = specials[variant%len(specials)]
			}
			for _, softmax := range []bool{true, false} {
				const maxv = 30.5
				label := fmt.Sprintf("n=%d variant=%d softmax=%v", n, variant, softmax)
				want := append([]float32(nil), row...)
				wantSum := expRowPortable(want, maxv, softmax)
				got := append([]float32(nil), row...)
				gotSum := expRow(got, maxv, softmax)
				if math.Float64bits(gotSum) != math.Float64bits(wantSum) && !(gotSum != gotSum && wantSum != wantSum) {
					t.Fatalf("%s: sum %v (%016x), portable %v (%016x)", label, gotSum, math.Float64bits(gotSum), wantSum, math.Float64bits(wantSum))
				}
				for i := range got {
					if !sameFloat(got[i], want[i]) {
						t.Fatalf("%s: entry %d = %v, portable %v", label, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestLogSoftmaxBothExps: LogSoftmaxAt and LogSoftmaxRow read the same
// log-sum-exp under either exp pass, over ordinary, masked and NaN rows.
func TestLogSoftmaxBothExps(t *testing.T) {
	r := &testRand{s: 59}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, n := range []int{1, 4, 7, 167} {
		for _, special := range []float32{1, nan, -inf, inf, -1e4} {
			row := make([]float32, n)
			for i := range row {
				row[i] = 20 * r.float()
			}
			row[n/2] = special
			var want []float64
			withExp(expRowPortable, func() { want = LogSoftmaxRow(row) })
			for name, kernel := range expKernels() {
				withExp(kernel, func() {
					got := LogSoftmaxRow(row)
					for i := range row {
						at := LogSoftmaxAt(row, i)
						if !sameFloat64(got[i], want[i]) || !sameFloat64(at, want[i]) {
							t.Fatalf("%s n=%d special=%v: entry %d row %v at %v, portable %v", name, n, special, i, got[i], at, want[i])
						}
					}
				})
			}
		}
	}
}

func sameFloat64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestSoftmaxDoesNotAllocate: the exp pass takes no scratch, so the
// per-head softmax and the per-token log-softmax allocate nothing.
func TestSoftmaxDoesNotAllocate(t *testing.T) {
	r := &testRand{s: 61}
	src := make([]float32, 130)
	for i := range src {
		src[i] = 10 * r.float()
	}
	src[17] = -1e4 // one block through math.Exp
	row := make([]float32, len(src))
	if n := testing.AllocsPerRun(100, func() { copy(row, src); SoftmaxRow(row) }); n != 0 {
		t.Fatalf("SoftmaxRow: %v allocations per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = LogSoftmaxAt(src, 3) }); n != 0 {
		t.Fatalf("LogSoftmaxAt: %v allocations per call", n)
	}
}

// BenchmarkSoftmaxRow times one attention softmax over 130 scores, as a
// 120-token prompt's decode step runs per head, under each exp pass.
func BenchmarkSoftmaxRow(b *testing.B) {
	r := &testRand{s: 67}
	src := make([]float32, 130)
	for i := range src {
		src[i] = 4 * r.float()
	}
	row := make([]float32, len(src))
	for name, kernel := range expKernels() {
		b.Run(name, func(b *testing.B) {
			withExp(kernel, func() {
				for i := 0; i < b.N; i++ {
					copy(row, src)
					SoftmaxRow(row)
				}
			})
		})
	}
}
