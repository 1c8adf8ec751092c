package model

import "repro/internal/tensor"

// scoreKeysAVX is in score_amd64.s.

//go:noescape
func scoreKeysAVX(scores []float32, qf []float64, keys []float32, ld int, scale float64)

func init() {
	if tensor.Kernel() == "avx" {
		scoreKeys = scoreKeysWide
	}
}

// scoreKeysWide runs the assembly over every position, sixteen at a time:
// the last pass computes the positions up to the next multiple of sixteen
// in the plane's padding (every K plane's capacity is one, kv.go) and
// keeps only those below len(scores).
func scoreKeysWide(scores []float32, qf []float64, keys []float32, ld int, scale float64) {
	hd, n := len(qf), len(scores)
	if n == 0 || hd == 0 {
		scoreKeysPortable(scores, qf, keys, ld, scale)
		return
	}
	_ = keys[(hd-1)*ld+kPad(n)-1] // the assembly reads no further
	scoreKeysAVX(scores, qf, keys, ld, scale)
}
