package tensor

// checkRow4AVX is in checked_amd64.s.

//go:noescape
func checkRow4AVX(x, out *float32, k, n int, sum, abs *float64, l *lanes)

func init() {
	if cpuHasAVX() {
		checkRow4 = checkRow4Wide
	}
}

// checkRow4Wide runs the AVX lanes over the inputs and outputs below the
// last multiple of four, four of each row at a time, and checkRow4From
// continues the chains over the rest.
func checkRow4Wide(x, out []float32, k, n int, sum, abs []float64) lanes {
	var l lanes
	k4, n4 := k&^3, n&^3
	if k > 0 && n > 0 {
		_, _ = x[4*k-1], out[4*n-1] // the assembly reads no further
		_, _ = sum[k-1], abs[k-1]
		checkRow4AVX(&x[0], &out[0], k, n, &sum[0], &abs[0], &l)
		if k4 == k && n4 == n {
			return l
		}
	}
	return checkRow4From(l, x, out, k, n, sum, abs, k4, n4)
}
