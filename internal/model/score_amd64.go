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

// scoreKeysWide runs the assembly over every position, sixteen at a time,
// the last pass backed up to end at len(scores) (masked when there are
// fewer than sixteen): it reads no key past them.
func scoreKeysWide(scores []float32, qf []float64, keys []float32, ld int, scale float64) {
	hd, n := len(qf), len(scores)
	if n == 0 || hd == 0 {
		scoreKeysPortable(scores, qf, keys, ld, scale)
		return
	}
	_ = keys[(hd-1)*ld+n-1] // the assembly reads no further
	scoreKeysAVX(scores, qf, keys, ld, scale)
}
