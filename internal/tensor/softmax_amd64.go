package tensor

// maxLanesAVX and scaleLanesAVX are in softmax_amd64.s.

//go:noescape
func maxLanesAVX(row []float32) float32

//go:noescape
func scaleLanesAVX(row []float32, s float32)

func init() {
	if cpuHasAVX() {
		maxRow, scaleRow = maxRowWide, scaleRowWide
	}
}

// maxRowWide runs the max lanes over the entries below the last multiple
// of eight and the scalar step over the rest. A lane maximum that is
// nonzero has one bit pattern wherever it occurs, so it is the scalar
// loop's; at a zero maximum +0 and -0 tie, and the scalar loop, which
// keeps whichever comes first, runs the row instead.
func maxRowWide(row []float32) float32 {
	n := len(row) &^ 7
	if n == 0 {
		return maxRowPortable(row)
	}
	maxv := maxLanesAVX(row[:n])
	if maxv == 0 {
		return maxRowPortable(row)
	}
	for _, v := range row[n:] {
		if v > maxv {
			maxv = v
		}
	}
	return maxv
}

// scaleRowWide runs the scale lanes over the entries below the last
// multiple of eight and the scalar product over the rest.
func scaleRowWide(row []float32, s float32) {
	n := len(row) &^ 7
	if n > 0 {
		scaleLanesAVX(row[:n], s)
	}
	scaleRowPortable(row[n:], s)
}
