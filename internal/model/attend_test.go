package model

import (
	"math"
	"testing"

	"repro/internal/numerics"
	"repro/internal/prng"
	"repro/internal/tensor"
)

// attendReference is attention written the obvious way: per head, one
// float64 dot per key position (i ascending), softmax, then one output
// channel at a time summing w·v in t-ascending order with zero weights
// skipped. attendAt's unrolled Q·K loop and its row-kernel value mix must
// reproduce it bit for bit.
func attendReference(cfg *Config, K, V *tensor.Tensor, pos int, q, out []float32) {
	hd := cfg.HeadDim()
	scale := 1 / math.Sqrt(float64(hd))
	n := pos + 1
	scores := make([]float32, n)
	for h := 0; h < cfg.NHeads; h++ {
		off := h * hd
		for t := 0; t < n; t++ {
			var dot float64
			for i := 0; i < hd; i++ {
				dot += float64(q[off+i]) * float64(K.At(t, off+i))
			}
			scores[t] = float32(dot * scale)
		}
		tensor.SoftmaxRow(scores)
		for i := 0; i < hd; i++ {
			var s float32
			for t := 0; t < n; t++ {
				if w := scores[t]; w != 0 {
					s += w * V.At(t, off+i)
				}
			}
			out[off+i] = s
		}
	}
}

// TestAttendValueMixMatchesReference pins attendAt to the naive loop for
// context lengths around the Q·K unroll (1, 3, 4, 5) and a long one, and
// for head widths on both sides of the row kernel's eight-column vector:
// 2 (portable tail only), 16 and 32. Two keys are scaled so their
// softmax weight underflows to exactly zero, and the value rows at those
// positions hold Inf, so the zero skip is observable. Each case runs on
// the cache in one piece and split, at points around the unroll and on
// both sides of the zero-weight keys, into a shared Prefix and own rows.
func TestAttendValueMixMatchesReference(t *testing.T) {
	for _, hd := range []int{2, 16, 32} {
		cfg := Config{
			Name: "attend", Vocab: 32, DModel: 2 * hd, NHeads: 2, NBlocks: 1,
			FFHidden: 8, MaxSeq: 128, Eps: 1e-5, DType: numerics.BF16, RopeTheta: 10000,
		}
		m := MustBuild(Spec{Config: cfg, Family: QwenS, Seed: 3})
		st := m.NewState()
		rng := prng.New(uint64(hd))
		next := func() float32 { return float32(2*rng.Float64() - 1) }
		q := make([]float32, cfg.DModel)
		for i := range q {
			q[i] = next()
		}
		K := &tensor.Tensor{Rows: cfg.MaxSeq, Cols: cfg.DModel, Data: st.own[planeK][0]}
		V := &tensor.Tensor{Rows: cfg.MaxSeq, Cols: cfg.DModel, Data: st.own[planeV][0]}
		for i := range K.Data {
			K.Data[i], V.Data[i] = next(), next()
		}
		for _, n := range []int{1, 3, 4, 5, 121} {
			zeros := 0
			if n == 121 {
				// Keys 7 and 64 point away from q in every head, far enough
				// that exp underflows to 0; the other 119 weights stay live.
				for c := range q {
					K.Set(7, c, -1e6*q[c])
					K.Set(64, c, -1e6*q[c])
					V.Set(7, c, float32(math.Inf(1)))
					V.Set(64, c, float32(math.Inf(-1)))
				}
				zeros = 2
			}
			want := make([]float32, cfg.DModel)
			attendReference(&cfg, K, V, n-1, q, want)
			// The same n rows held in two pieces, the first nb read from a
			// Prefix: every split leaves the contiguous cache's bits.
			st.Pos = n
			snap := st.Snapshot()
			for _, nb := range []int{0, 1, 3, 4, 5, 8, 64, n - 1} {
				if nb >= n {
					continue
				}
				f := snap.ForkInto(m, nil, nb)
				f.reserveNext(n - nb)
				for pl := range f.own {
					copy(f.own[pl][0], st.own[pl][0][nb*cfg.DModel:n*cfg.DModel])
				}
				got := make([]float32, cfg.DModel)
				m.attendAt(f, 0, n-1, q, got)
				for c := range want {
					if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
						t.Fatalf("head dim %d n=%d shared %d: channel %d = %v (%08x), reference %v (%08x)", hd, n, nb, c,
							got[c], math.Float32bits(got[c]), want[c], math.Float32bits(want[c]))
					}
					if zeros > 0 && (math.IsNaN(float64(got[c])) || math.IsInf(float64(got[c]), 0)) {
						t.Fatalf("head dim %d n=%d shared %d: channel %d = %v: a zero-weight position was not skipped", hd, n, nb, c, got[c])
					}
				}
			}
		}
	}
}
