package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// softmaxSpecials are the entries the softmax lanes tests place at every
// lane position: NaNs quiet and signalling with payloads, ±Inf, ±0, the
// float32 subnormals at both ends, and the largest finite values.
var softmaxSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x00400000),
	math.MaxFloat32, -math.MaxFloat32,
}

// withPortableSoftmax runs f with SoftmaxRow's max and scale passes set to
// the portable loops.
func withPortableSoftmax(f func()) {
	savedMax, savedScale := maxRow, scaleRow
	maxRow, scaleRow = maxRowPortable, scaleRowPortable
	defer func() { maxRow, scaleRow = savedMax, savedScale }()
	f()
}

// checkSoftmaxLanes holds the max and scale passes this machine selected
// to the portable loops on row, and SoftmaxRow through each to SoftmaxRow
// through the portable ones under every exp pass, all bit for bit — the
// sign of a zero maximum and a NaN's payload included.
func checkSoftmaxLanes(t testing.TB, label string, row []float32) {
	t.Helper()
	if got, want := maxRow(row), maxRowPortable(row); math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("%s: max %v (%08x), portable %v (%08x)", label, got, math.Float32bits(got), want, math.Float32bits(want))
	}
	for _, s := range []float32{0.3721, 1, math.Float32frombits(1), math.MaxFloat32} {
		got, want := append([]float32(nil), row...), append([]float32(nil), row...)
		scaleRow(got, s)
		scaleRowPortable(want, s)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: entry %d times %v = %08x, portable %08x", label, i, s, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for name, kernel := range expKernels() {
		got, want := append([]float32(nil), row...), append([]float32(nil), row...)
		withExp(kernel, func() {
			SoftmaxRow(got)
			withPortableSoftmax(func() { SoftmaxRow(want) })
		})
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s (exp %s): softmax entry %d = %v (%08x), portable passes %v (%08x)", label, name, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestSoftmaxLanesMatchScalar runs SoftmaxRow's max and scale passes,
// lanes against loops, over rows of every length up to 41 and 130 — whole
// vectors of eight, pairs of them, and a ragged tail — with each special
// entry at every position, so it sits in every lane of the max's two
// accumulators and in the tail; then with +0 and -0 tying for the maximum
// at every pair of positions, and with specials scattered at random.
func TestSoftmaxLanesMatchScalar(t *testing.T) {
	r := &testRand{s: 83}
	lengths := []int{130}
	for n := 0; n <= 41; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		base := make([]float32, n)
		for i := range base {
			base[i] = 8 * r.float()
		}
		checkSoftmaxLanes(t, fmt.Sprintf("n=%d plain", n), base)
		for si, special := range softmaxSpecials {
			for p := 0; p < n; p++ {
				row := append([]float32(nil), base...)
				row[p] = special
				checkSoftmaxLanes(t, fmt.Sprintf("n=%d special %d at %d", n, si, p), row)
			}
		}
		negative := make([]float32, n)
		for i := range negative {
			negative[i] = -1 - 8*float32(math.Abs(float64(r.float())))
		}
		for p := 0; p < n; p++ {
			for q := 0; q < n; q += 3 {
				if q == p {
					continue
				}
				row := append([]float32(nil), negative...)
				row[p], row[q] = 0, float32(math.Copysign(0, -1))
				checkSoftmaxLanes(t, fmt.Sprintf("n=%d +0 at %d, -0 at %d", n, p, q), row)
			}
		}
		for trial := 0; trial < 20; trial++ {
			row := append([]float32(nil), base...)
			for i := range row {
				if u := r.next(); u%5 == 0 {
					row[i] = softmaxSpecials[(u>>32)%uint64(len(softmaxSpecials))]
				}
			}
			checkSoftmaxLanes(t, fmt.Sprintf("n=%d scattered %d", n, trial), row)
		}
	}
}

// FuzzSoftmaxRow feeds raw bit patterns as a row to SoftmaxRow's max and
// scale passes and holds the selected ones to the portable loops.
func FuzzSoftmaxRow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff})
	f.Add(make([]byte, 4*33))
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, 1, 0, 0, 0, 0, 0, 0x80, 0x7f, 0, 0, 0x80, 0x3f})
	f.Fuzz(func(t *testing.T, b []byte) {
		row := make([]float32, len(b)/4)
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		checkSoftmaxLanes(t, "fuzz", row)
	})
}
