package tensor

// rowKernelAVX and cpuHasAVX are in rowkernel_amd64.s.

//go:noescape
func rowKernelAVX(out, x, w []float32, stride int, cont bool)

func cpuHasAVX() bool

func init() {
	if cpuHasAVX() {
		rowKernel, kernelName = rowKernelWide, "avx"
	}
}

// rowKernelWide runs the assembly on every row of eight or more columns.
// Narrower rows (a two-wide attention head) have no full vector to
// recompute the ragged tail over and stay on the portable kernel, as do
// the last len(out)%8 columns of a continued sum: recomputing them over
// the final eight would continue the overlapped columns a second time.
func rowKernelWide(out, x, w []float32, stride int, cont bool) {
	n := len(out)
	if cont {
		n &^= 7
	}
	if n < 8 {
		rowKernelPortable(out, x, w, stride, cont)
		return
	}
	rowKernelAVX(out[:n], x, w, stride, cont)
	if n < len(out) {
		rowKernelPortable(out[n:], x, w[n:], stride, cont)
	}
}
