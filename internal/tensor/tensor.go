// Package tensor provides the dense linear-algebra substrate of the
// inference engine: row-major float32 matrices, a parallel blocked GEMM,
// the elementwise and reduction operations transformer blocks need, and
// the column/row statistics used to trace fault propagation (Figures 5–6
// of the paper).
//
// Values are stored as float32 but logically belong to a numerics.DType;
// operations that must respect the storage format (fault injection,
// requantization) go through that package.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major matrix. A vector is a Tensor with Rows == 1.
// The zero value is an empty tensor; use New or FromSlice for real data.
type Tensor struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zero-filled Rows×Cols tensor.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (length rows*cols) without copying.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (t *Tensor) At(r, c int) float32 { return t.Data[r*t.Cols+c] }

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float32) { t.Data[r*t.Cols+c] = v }

// Row returns row r as a slice sharing the tensor's storage.
func (t *Tensor) Row(r int) []float32 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.Rows, t.Cols)
	copy(out.Data, t.Data)
	return out
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Equal reports whether two tensors have identical shape and bitwise-equal
// elements (NaNs compare equal to NaNs so corrupted tensors can be
// compared for change detection).
func Equal(a, b *Tensor) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if v != w && !(math.IsNaN(float64(v)) && math.IsNaN(float64(w))) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// a and b. Differences involving NaN or Inf report +Inf.
func MaxAbsDiff(a, b *Tensor) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	maxd := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// AddInPlace sets t += other elementwise.
func (t *Tensor) AddInPlace(other *Tensor) {
	if t.Rows != other.Rows || t.Cols != other.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	for i := range t.Data {
		t.Data[i] += other.Data[i]
	}
}

// MulInPlace sets t *= other elementwise (Hadamard product).
func (t *Tensor) MulInPlace(other *Tensor) {
	if t.Rows != other.Rows || t.Cols != other.Cols {
		panic("tensor: MulInPlace shape mismatch")
	}
	for i := range t.Data {
		t.Data[i] *= other.Data[i]
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// String renders a compact shape descriptor, not the contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%dx%d)", t.Rows, t.Cols)
}
