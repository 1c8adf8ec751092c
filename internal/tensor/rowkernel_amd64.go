package tensor

// rowKernelAVX and cpuHasAVX are in rowkernel_amd64.s.

//go:noescape
func rowKernelAVX(out, x, w []float32, stride int)

func cpuHasAVX() bool

func init() {
	if cpuHasAVX() {
		rowKernel, kernelName = rowKernelWide, "avx"
	}
}

// rowKernelWide runs the assembly on every row of eight or more columns.
// Narrower rows (a two-wide attention head) have no full vector to
// recompute the ragged tail over and stay on the portable kernel.
func rowKernelWide(out, x, w []float32, stride int) {
	if len(out) < 8 {
		rowKernelPortable(out, x, w, stride)
		return
	}
	rowKernelAVX(out, x, w, stride)
}
