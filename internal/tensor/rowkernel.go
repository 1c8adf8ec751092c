package tensor

// rowKernel is the one row kernel behind MatVec, every row of MatMulRange
// and the attention value mix: the AVX assembly where the CPU and OS
// support it (set once at init, rowkernel_amd64.go), rowKernelPortable
// everywhere else. Both produce the same bits, so there is nothing to
// choose: no flag, option or build tag selects one, and only the kernel
// tests assign this variable.
var (
	rowKernel  = rowKernelPortable
	kernelName = "portable"
)

// Kernel names the row kernel this process runs, "avx" or "portable", so
// a throughput number quoted from another machine is attributable.
// Results do not depend on it.
func Kernel() string { return kernelName }

// MatVecStrided computes out[c] = Σ_p x[p]·w[p·stride+c] for c < len(out):
// one activation row x against len(out) adjacent columns of a row-major
// matrix whose rows are stride elements apart, starting at w[0]. With
// stride == len(out) that is MatVec; with x the softmaxed scores, w a
// head's slice of the V cache and stride the model width it is the
// attention value mix. Each out element is accumulated in float32 from
// +0 with p ascending and x[p] == ±0 skipped (a zero input contributes
// nothing even against an Inf or NaN weight) — the bit-identity contract
// every GEMM in this package is pinned to. out must not alias x or w.
func MatVecStrided(out, x, w []float32, stride int) {
	checkStrided(out, x, w, stride)
	rowKernel(out, x, w, stride, false)
}

// MatVecStridedCont continues the sums MatVecStrided left in out over
// further inputs: out[c] += Σ_p x[p]·w[p·stride+c], each element picking
// its float32 accumulation up from the value it holds, p ascending, ±0
// inputs skipped. A sum split at any point into one MatVecStrided call
// and any number of continuations is bit-identical to the one call over
// the concatenated inputs — float32 accumulators survive a store and a
// load exactly — which is what lets attention mix values over a KV cache
// held in two pieces (model.State).
func MatVecStridedCont(out, x, w []float32, stride int) {
	checkStrided(out, x, w, stride)
	if len(x) > 0 {
		rowKernel(out, x, w, stride, true)
	}
}

func checkStrided(out, x, w []float32, stride int) {
	if len(out) > stride {
		panic("tensor: MatVecStrided stride shorter than out")
	}
	if len(x) > 0 && len(out) > 0 && len(w) < (len(x)-1)*stride+len(out) {
		panic("tensor: MatVecStrided weights too short")
	}
}

// rowKernelPortable is the pure-Go row kernel: the path of every platform
// without the assembly, and the reference the assembly is pinned to bit
// for bit. It tiles eight output columns into register accumulators per
// pass over x, so out is stored once per column instead of once per
// (input, column) as in the saxpy form. The sums start at +0, or with
// cont at the values out holds.
func rowKernelPortable(out, x, w []float32, stride int, cont bool) {
	n := len(out)
	i := 0
	for ; i+8 <= n; i += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		if cont {
			s0, s1, s2, s3 = out[i], out[i+1], out[i+2], out[i+3]
			s4, s5, s6, s7 = out[i+4], out[i+5], out[i+6], out[i+7]
		}
		off := i
		for _, xv := range x {
			if xv != 0 {
				wr := w[off : off+8 : off+8]
				s0 += xv * wr[0]
				s1 += xv * wr[1]
				s2 += xv * wr[2]
				s3 += xv * wr[3]
				s4 += xv * wr[4]
				s5 += xv * wr[5]
				s6 += xv * wr[6]
				s7 += xv * wr[7]
			}
			off += stride
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
		out[i+4], out[i+5], out[i+6], out[i+7] = s4, s5, s6, s7
	}
	for ; i < n; i++ {
		var s float32
		if cont {
			s = out[i]
		}
		off := i
		for _, xv := range x {
			if xv != 0 {
				s += xv * w[off]
			}
			off += stride
		}
		out[i] = s
	}
}
