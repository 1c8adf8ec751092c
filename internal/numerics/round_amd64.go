package numerics

// roundBF16SSE2 is in round_amd64.s.

//go:noescape
func roundBF16SSE2(vals []float32) (n int)

// SSE2 is part of amd64 itself, so the lanes need no CPU probe.
func init() { roundBF16 = roundBF16Wide }

// roundBF16Wide runs the assembly over every whole block of four and
// roundBF16Portable over the ragged tail.
func roundBF16Wide(vals []float32) {
	n := roundBF16SSE2(vals)
	roundBF16Portable(vals[n:])
}
