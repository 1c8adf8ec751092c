package tensor

import (
	"math"
	"math/bits"
	"testing"
)

// testRand is a tiny deterministic generator (splitmix64) so kernel tests
// never touch math/rand (the determinism linter forbids it repo-wide).
type testRand struct{ s uint64 }

func (r *testRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRand) float() float32 {
	return float32(r.next()>>40)/float32(1<<24)*2 - 1
}

// fillRandom populates t with deterministic pseudo-random values, zeroing
// a fraction of them so the kernels' zero-skip paths are exercised.
func fillRandom(t *Tensor, r *testRand, zeroFrac float64) {
	for i := range t.Data {
		if float64(r.next()>>40)/float64(1<<24) < zeroFrac {
			t.Data[i] = 0
			continue
		}
		t.Data[i] = r.float()
	}
}

// bitsEqual compares float32 slices bit for bit (NaN-safe).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// matmulRows computes rows [r0, r1) of out = a·b in the saxpy form — the
// reference the kernel tests pin the row kernel to.
func matmulRows(out, a, b *Tensor, r0, r1 int) {
	n := b.Cols
	k := a.Cols
	for i := r0; i < r1; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for x := range orow {
			orow[x] = 0
		}
		arow := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for x, bv := range brow {
				orow[x] += av * bv
			}
		}
	}
}

// TestMatVecMatchesReference pins the register-tiled MatVec to the
// original saxpy kernel (matmulRows on a 1-row matrix): the per-element
// accumulation order — p ascending, zero inputs skipped — is the
// bit-identity contract everything else in this package builds on.
func TestMatVecMatchesReference(t *testing.T) {
	r := &testRand{s: 23}
	for _, shape := range [][2]int{{1, 1}, {7, 5}, {16, 8}, {64, 64}, {48, 37}, {64, 130}} {
		k, n := shape[0], shape[1]
		w := New(k, n)
		fillRandom(w, r, 0.1)
		x := New(1, k)
		fillRandom(x, r, 0.3)
		x.Set(0, 0, float32(math.Inf(1))) // non-finite propagation too
		want := New(1, n)
		matmulRows(want, x, w, 0, 1)
		got := make([]float32, n)
		MatVec(got, x.Row(0), w)
		if !bitsEqual(got, want.Row(0)) {
			t.Fatalf("k=%d n=%d: MatVec differs from reference saxpy kernel", k, n)
		}
	}
}

// TestMatMulRowsMatchesMatVec is the batched-decode bit-identity
// contract: every computed row of MatMulRange must equal MatVec on that
// row exactly, for every row range (a decode step's shards each take
// one; MatMulRows is the ranges starting at 0) and every worker count,
// and no row outside the range may be written.
func TestMatMulRowsMatchesMatVec(t *testing.T) {
	r := &testRand{s: 7}
	const capacity, k, n = 19, 48, 37
	b := New(k, n)
	fillRandom(b, r, 0.1)
	a := New(capacity, k)
	fillRandom(a, r, 0.25)

	want := New(capacity, n)
	for i := 0; i < capacity; i++ {
		MatVec(want.Row(i), a.Row(i), b)
	}
	for r0 := 0; r0 <= capacity; r0++ {
		for r1 := r0; r1 <= capacity; r1++ {
			for _, workers := range []int{1, 3} {
				out := New(capacity, n)
				out.Fill(float32(math.NaN())) // untouched rows must stay untouched
				if r0 == 0 {
					MatMulRows(out, a, b, r1, workers)
				} else {
					MatMulRange(out, a, b, r0, r1, workers)
				}
				for i := 0; i < capacity; i++ {
					if i >= r0 && i < r1 {
						if !bitsEqual(out.Row(i), want.Row(i)) {
							t.Fatalf("rows [%d,%d) workers=%d: row %d differs from MatVec", r0, r1, workers, i)
						}
						continue
					}
					for x, v := range out.Row(i) {
						if !math.IsNaN(float64(v)) {
							t.Fatalf("rows [%d,%d): untouched row %d col %d was written (%v)", r0, r1, i, x, v)
						}
					}
				}
			}
		}
	}
}

// TestMatMulRowsSpecials checks the blocked kernel propagates non-finite
// activations exactly as MatVec does (a fault-corrupted batch row must
// not contaminate or diverge from its serial twin).
func TestMatMulRowsSpecials(t *testing.T) {
	r := &testRand{s: 11}
	const rows, k, n = 6, 16, 9
	b := New(k, n)
	fillRandom(b, r, 0)
	a := New(rows, k)
	fillRandom(a, r, 0)
	a.Set(1, 3, float32(math.Inf(1)))
	a.Set(2, 0, float32(math.NaN()))
	a.Set(4, 15, float32(math.Inf(-1)))

	want := New(rows, n)
	for i := 0; i < rows; i++ {
		MatVec(want.Row(i), a.Row(i), b)
	}
	out := New(rows, n)
	MatMulRows(out, a, b, rows, 1)
	if !bitsEqual(out.Data, want.Data) {
		t.Fatal("non-finite rows diverge from MatVec")
	}
}

// TestMatMulPBlockedEquivalence pins the register-blocked kernel now
// behind MatMulP to the reference row-at-a-time kernel over many shapes.
func TestMatMulPBlockedEquivalence(t *testing.T) {
	r := &testRand{s: 3}
	for _, shape := range [][3]int{{1, 8, 8}, {3, 16, 5}, {4, 9, 12}, {7, 33, 21}, {64, 24, 24}, {70, 13, 40}} {
		m, k, n := shape[0], shape[1], shape[2]
		a := New(m, k)
		b := New(k, n)
		fillRandom(a, r, 0.2)
		fillRandom(b, r, 0.05)
		want := New(m, n)
		matmulRows(want, a, b, 0, m)
		for _, workers := range []int{1, 2, 5} {
			got := New(m, n)
			MatMulP(got, a, b, workers)
			if !bitsEqual(got.Data, want.Data) {
				t.Fatalf("%dx%dx%d workers=%d: blocked kernel differs from reference", m, k, n, workers)
			}
		}
	}
}

// sink prevents dead-code elimination in benchmarks.
var sink uint64

// BenchmarkMatVecLoop and BenchmarkMatMulRows compare m GEMVs against one
// m×k GEMM at decode-batch shapes (k=n=64, the StandardConfig DModel).
func BenchmarkMatVecLoop(bm *testing.B) {
	r := &testRand{s: 5}
	const m, k, n = 16, 64, 64
	a, b, out := New(m, k), New(k, n), New(m, n)
	fillRandom(a, r, 0)
	fillRandom(b, r, 0)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		for row := 0; row < m; row++ {
			MatVec(out.Row(row), a.Row(row), b)
		}
	}
	sink += uint64(bits.Reverse32(math.Float32bits(out.At(0, 0))))
}

func BenchmarkMatMulRows(bm *testing.B) {
	r := &testRand{s: 5}
	const m, k, n = 16, 64, 64
	a, b, out := New(m, k), New(k, n), New(m, n)
	fillRandom(a, r, 0)
	fillRandom(b, r, 0)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		MatMulRows(out, a, b, m, 1)
	}
	sink += uint64(bits.Reverse32(math.Float32bits(out.At(0, 0))))
}
