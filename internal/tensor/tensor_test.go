package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func randTensor(src *prng.Source, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		t.Data[i] = float32(src.NormFloat64())
	}
	return t
}

// naiveMatMul is the reference triple loop.
func naiveMatMul(a, b *Tensor) *Tensor {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float32
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulMatchesNaive(t *testing.T) {
	f := func(seed uint64, mr, kr, nr uint8) bool {
		m, k, n := int(mr%20)+1, int(kr%20)+1, int(nr%20)+1
		src := prng.New(seed)
		a := randTensor(src, m, k)
		b := randTensor(src, k, n)
		got := New(m, n)
		MatMul(got, a, b)
		return tensorsClose(got, naiveMatMul(a, b), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	src := prng.New(11)
	a := randTensor(src, 200, 32)
	b := randTensor(src, 32, 48)
	serial := New(200, 48)
	matmulRows(serial, a, b, 0, 200)
	for _, workers := range []int{0, 1, 2, 4, 7} {
		parallel := New(200, 48)
		MatMulP(parallel, a, b, workers)
		if !Equal(serial, parallel) {
			t.Fatalf("matmul with %d workers differs from serial", workers)
		}
	}
}

func TestMatMulTMatchesNaive(t *testing.T) {
	f := func(seed uint64, mr, kr, nr uint8) bool {
		m, k, n := int(mr%16)+1, int(kr%16)+1, int(nr%16)+1
		src := prng.New(seed)
		a := randTensor(src, m, k)
		b := randTensor(src, n, k) // b is n x k, we compute a · bᵀ
		got := New(m, n)
		MatMulT(got, a, b)
		// reference: transpose b then naive
		bt := New(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		return tensorsClose(got, naiveMatMul(a, bt), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatMulATMatchesNaive(t *testing.T) {
	f := func(seed uint64, tr, mr, nr uint8) bool {
		T, m, n := int(tr%16)+1, int(mr%16)+1, int(nr%16)+1
		src := prng.New(seed)
		a := randTensor(src, T, m)
		b := randTensor(src, T, n)
		got := New(m, n)
		AddMatMulAT(got, a, b)
		at := New(m, T)
		for i := 0; i < T; i++ {
			for j := 0; j < m; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		return tensorsClose(got, naiveMatMul(at, b), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddMatMulATAccumulates(t *testing.T) {
	src := prng.New(3)
	a := randTensor(src, 5, 4)
	b := randTensor(src, 5, 6)
	acc := New(4, 6)
	acc.Fill(1)
	AddMatMulAT(acc, a, b)
	plain := New(4, 6)
	AddMatMulAT(plain, a, b)
	for i := range acc.Data {
		if math.Abs(float64(acc.Data[i]-plain.Data[i]-1)) > 1e-5 {
			t.Fatal("AddMatMulAT did not accumulate onto existing values")
		}
	}
}

func TestMatVecMatchesMatMul(t *testing.T) {
	src := prng.New(9)
	w := randTensor(src, 12, 7)
	x := make([]float32, 12)
	for i := range x {
		x[i] = float32(src.NormFloat64())
	}
	out := make([]float32, 7)
	MatVec(out, x, w)
	ref := New(1, 7)
	MatMul(ref, FromSlice(1, 12, x), w)
	for i := range out {
		if math.Abs(float64(out[i]-ref.Data[i])) > 1e-4 {
			t.Fatalf("MatVec[%d] = %g, MatMul = %g", i, out[i], ref.Data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestSoftmaxRowSumsToOne(t *testing.T) {
	f := func(seed uint64, nr uint8) bool {
		n := int(nr%30) + 2
		src := prng.New(seed)
		row := make([]float32, n)
		for i := range row {
			row[i] = float32(src.NormFloat64() * 5)
		}
		SoftmaxRow(row)
		var sum float64
		for _, v := range row {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRowInfSaturates(t *testing.T) {
	row := []float32{1, float32(math.Inf(1)), 2}
	SoftmaxRow(row)
	if row[1] != 1 || row[0] != 0 || row[2] != 0 {
		t.Fatalf("softmax with +Inf should be one-hot, got %v", row)
	}
}

func TestSoftmaxRowAllMasked(t *testing.T) {
	ninf := float32(math.Inf(-1))
	row := []float32{ninf, ninf, ninf}
	SoftmaxRow(row)
	for _, v := range row {
		if math.Abs(float64(v)-1.0/3) > 1e-6 {
			t.Fatalf("all-masked softmax should be uniform, got %v", row)
		}
	}
}

func TestSoftmaxRowNaNPropagates(t *testing.T) {
	row := []float32{1, float32(math.NaN()), 2}
	SoftmaxRow(row)
	if !math.IsNaN(float64(row[0])) {
		t.Fatal("NaN contamination should propagate")
	}
}

func TestLogSoftmaxConsistent(t *testing.T) {
	row := []float32{0.5, -1, 3, 0}
	lsm := LogSoftmaxRow(row)
	var sum float64
	for _, v := range lsm {
		sum += math.Exp(v)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("exp(logsoftmax) sums to %g", sum)
	}
}

// TestLogSoftmaxAtMatchesRow pins the one-entry form to the row form bit
// for bit — NaN payloads included — on ordinary rows, rows masked with
// -Inf (banned tokens), a +Inf entry, an all -Inf row and a NaN row.
func TestLogSoftmaxAtMatchesRow(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	rows := [][]float32{
		{0.5, -1, 3, 0},
		{-40, 12.25, 12.25, -1e-3, 88},
		{-inf, 2, -inf, 1, -inf},
		{1, inf, 0},
		{-inf, -inf, -inf},
		{1, nan, 2},
		{3e38, -3e38, 1},
	}
	for _, row := range rows {
		lsm := LogSoftmaxRow(row)
		for i := range row {
			if got := LogSoftmaxAt(row, i); math.Float64bits(got) != math.Float64bits(lsm[i]) {
				t.Fatalf("row %v entry %d: LogSoftmaxAt %v (%#x), LogSoftmaxRow %v (%#x)",
					row, i, got, math.Float64bits(got), lsm[i], math.Float64bits(lsm[i]))
			}
		}
	}
}

func TestRMSNormRowScaleInvariantDirection(t *testing.T) {
	// RMSNorm output depends only on the direction of the input (up to
	// eps): scaling the input by any positive constant barely changes the
	// output — the masking property for huge corrupted values.
	gain := []float32{1, 1, 1, 1}
	a := []float32{1, 2, -1, 0.5}
	b := []float32{1e6, 2e6, -1e6, 0.5e6}
	RMSNormRow(a, gain, 1e-5)
	RMSNormRow(b, gain, 1e-5)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-3 {
			t.Fatalf("RMSNorm not scale invariant: %v vs %v", a, b)
		}
	}
}

func TestRMSNormBoundsCorruptedValue(t *testing.T) {
	gain := []float32{1, 1, 1, 1}
	row := []float32{1, 1e30, 1, 1}
	RMSNormRow(row, gain, 1e-5)
	if math.Abs(float64(row[1])-2) > 1e-2 {
		t.Fatalf("corrupted element should squash to ~sqrt(d)=2, got %g", row[1])
	}
	if math.Abs(float64(row[0])) > 1e-10+1e-25 {
		// other elements collapse toward zero
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float32{1, 3, 2}) != 1 {
		t.Error("argmax basic")
	}
	if Argmax([]float32{1, 3, 3}) != 1 {
		t.Error("argmax tie should pick lower index")
	}
	nan := float32(math.NaN())
	if Argmax([]float32{nan, 2, 5}) != 2 {
		t.Error("argmax should skip NaN")
	}
	if Argmax([]float32{nan, nan}) != 0 {
		t.Error("all-NaN argmax should return 0")
	}
}

func TestTopK(t *testing.T) {
	got := TopK(nil, []float32{0.1, 5, 3, 4}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopK = %v, want [1 3]", got)
	}
	got = TopK(nil, []float32{1, 2}, 5)
	if len(got) != 2 {
		t.Fatal("TopK should clamp k to len")
	}
	nan := float32(math.NaN())
	got = TopK(nil, []float32{nan, nan, nan}, 2)
	if len(got) != 2 {
		t.Fatal("all-NaN TopK must still return k experts")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 3 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqualTreatsNaNEqual(t *testing.T) {
	nan := float32(math.NaN())
	a := FromSlice(1, 2, []float32{nan, 1})
	b := FromSlice(1, 2, []float32{nan, 1})
	if !Equal(a, b) {
		t.Fatal("NaN should compare equal to NaN in Equal")
	}
}

func TestCorruptionMaskAndSummary(t *testing.T) {
	clean := New(3, 4)
	faulty := clean.Clone()
	// Corrupt one full column.
	for r := 0; r < 3; r++ {
		faulty.Set(r, 2, 100)
	}
	mask := CorruptionMask(faulty, clean, 1e-3)
	st := SummarizeMask(mask)
	if st.FullColumns != 1 || st.TouchedCols != 1 || st.FullRows != 0 || st.Corrupted != 3 {
		t.Fatalf("unexpected mask stats: %+v", st)
	}
}

func TestColumnRowMaxAbs(t *testing.T) {
	x := FromSlice(2, 3, []float32{1, -5, 2, 0, 3, float32(math.Inf(1))})
	cols := x.ColumnMaxAbs()
	if cols[0] != 1 || cols[1] != 5 || !math.IsInf(cols[2], 1) {
		t.Fatalf("ColumnMaxAbs = %v", cols)
	}
	rows := x.RowMaxAbs()
	if rows[0] != 5 || !math.IsInf(rows[1], 1) {
		t.Fatalf("RowMaxAbs = %v", rows)
	}
}

func TestHeatmapMarksExtremes(t *testing.T) {
	x := New(3, 3)
	x.Fill(1)
	x.Set(1, 1, 1e31)
	art := x.Heatmap(3, 3)
	found := false
	for _, ch := range art {
		if ch == '#' {
			found = true
		}
	}
	if !found {
		t.Fatal("heatmap should mark extreme values with '#'")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	src := prng.New(1)
	a := randTensor(src, 64, 64)
	w := randTensor(src, 64, 64)
	out := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(out, a, w)
	}
}

func BenchmarkMatVec(b *testing.B) {
	src := prng.New(1)
	w := randTensor(src, 64, 176)
	x := make([]float32, 64)
	out := make([]float32, 176)
	for i := range x {
		x[i] = float32(src.NormFloat64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatVec(out, x, w)
	}
}
