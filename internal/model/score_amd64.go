package model

import "repro/internal/tensor"

// scoreKeysAVX is in score_amd64.s.

//go:noescape
func scoreKeysAVX(scores []float32, qf []float64, keys []float32, off, stride int, scale float64)

func init() {
	if tensor.Kernel() == "avx" {
		scoreKeys = scoreKeysWide
	}
}

// scoreKeysWide runs the assembly over the positions below the last
// multiple of eight, for heads a multiple of four wide; the ragged
// positions and narrower or odd heads (ScaledConfig makes two-wide ones)
// stay on the portable loop, whose every score is its own sum too.
func scoreKeysWide(scores []float32, qf []float64, keys []float32, off, stride int, scale float64) {
	hd, n := len(qf), len(scores)&^7
	if n == 0 || hd == 0 || hd%4 != 0 {
		scoreKeysPortable(scores, qf, keys, off, stride, scale)
		return
	}
	_ = keys[(n-1)*stride+off+hd-1] // the assembly reads no further
	scoreKeysAVX(scores[:n], qf, keys, off, stride, scale)
	if n < len(scores) {
		scoreKeysPortable(scores[n:], qf, keys[n*stride:], off, stride, scale)
	}
}
