// Package quant implements group-wise integer weight quantization in the
// style of GPTQ/round-to-nearest: weights are stored as signed INT4 or
// INT8 codes with one float32 scale per contiguous group of a column.
//
// The resilience mechanism of Observation #8 lives here: a memory fault
// flips bits of the stored integer code, so the post-fault weight can move
// by at most scale·(2^(bits-1)) — a modest, distribution-bounded change —
// whereas a BF16 exponent flip can reach ±3.4e38. Quantized models are
// therefore nearly immune to the distorted-output failure mode.
package quant

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/tensor"
)

// GroupSize is the number of consecutive weights (along the input
// dimension) sharing one scale, matching common GPTQ configurations.
const GroupSize = 32

// Weight is a quantized linear layer implementing model.Weight. Codes are
// stored one int8 per element even for INT4 (the low nibble is used);
// addressing is unaffected and the INT4 value range is enforced on
// encode and after bit flips.
type Weight struct {
	in, out int
	bits    int // 4 or 8
	// codes[r*out+c] holds the signed code of element (r, c).
	codes []int8
	// scales[g*out+c] holds the scale for group g of column c, where
	// g = r / GroupSize.
	scales []float32
	groups int
}

var _ model.Weight = (*Weight)(nil)

// Quantize converts a dense float tensor (in x out) to a quantized weight
// with the given bit width (4 or 8). Scales are chosen per (group,
// column) as max|w| / qmax — symmetric round-to-nearest quantization.
func Quantize(t *tensor.Tensor, bits int) (*Weight, error) {
	if bits != 4 && bits != 8 {
		return nil, fmt.Errorf("quant: unsupported bit width %d", bits)
	}
	in, out := t.Rows, t.Cols
	groups := (in + GroupSize - 1) / GroupSize
	w := &Weight{
		in: in, out: out, bits: bits,
		codes:  make([]int8, in*out),
		scales: make([]float32, groups*out),
		groups: groups,
	}
	qmax := float64(int(1)<<(bits-1) - 1) // 7 for INT4, 127 for INT8

	for g := 0; g < groups; g++ {
		r0, r1 := g*GroupSize, (g+1)*GroupSize
		if r1 > in {
			r1 = in
		}
		for c := 0; c < out; c++ {
			var maxAbs float64
			for r := r0; r < r1; r++ {
				a := math.Abs(float64(t.At(r, c)))
				if a > maxAbs {
					maxAbs = a
				}
			}
			scale := maxAbs / qmax
			if scale == 0 {
				scale = 1e-8
			}
			w.scales[g*out+c] = float32(scale)
			for r := r0; r < r1; r++ {
				q := math.Round(float64(t.At(r, c)) / scale)
				if q > qmax {
					q = qmax
				}
				if q < -qmax-1 {
					q = -qmax - 1
				}
				w.codes[r*out+c] = int8(q)
			}
		}
	}
	return w, nil
}

// QuantizeModel returns a copy of m with every linear layer (including
// the LM head) replaced by a bits-wide quantized version. Norm gains and
// embeddings stay in floating point, as GPTQ leaves them.
func QuantizeModel(m *model.Model, bits int) (*model.Model, error) {
	qm := &model.Model{
		Cfg:       m.Cfg,
		Embed:     m.Embed.Clone(),
		FinalNorm: append([]float32(nil), m.FinalNorm...),
	}
	qm.Cfg.Name = fmt.Sprintf("%s-int%d", m.Cfg.Name, bits)
	var err error
	if qm.LMHead, err = quantizeWeight(m.LMHead, bits); err != nil {
		return nil, err
	}
	for _, blk := range m.Blocks {
		nb := &model.Block{
			AttnNorm: append([]float32(nil), blk.AttnNorm...),
			MLPNorm:  append([]float32(nil), blk.MLPNorm...),
		}
		if nb.Wq, err = quantizeWeight(blk.Wq, bits); err != nil {
			return nil, err
		}
		if nb.Wk, err = quantizeWeight(blk.Wk, bits); err != nil {
			return nil, err
		}
		if nb.Wv, err = quantizeWeight(blk.Wv, bits); err != nil {
			return nil, err
		}
		if nb.Wo, err = quantizeWeight(blk.Wo, bits); err != nil {
			return nil, err
		}
		if blk.MLP != nil {
			if nb.MLP, err = quantizeMLP(blk.MLP, bits); err != nil {
				return nil, err
			}
		}
		if blk.Router != nil {
			if nb.Router, err = quantizeWeight(blk.Router, bits); err != nil {
				return nil, err
			}
			for _, ex := range blk.Experts {
				qe, err := quantizeMLP(ex, bits)
				if err != nil {
					return nil, err
				}
				nb.Experts = append(nb.Experts, qe)
			}
		}
		qm.Blocks = append(qm.Blocks, nb)
	}
	qm.InitRope()
	return qm, nil
}

func quantizeWeight(w model.Weight, bits int) (*Weight, error) {
	d, ok := w.(*model.Dense)
	if !ok {
		return nil, fmt.Errorf("quant: can only quantize dense weights, got %T", w)
	}
	return Quantize(d.T, bits)
}

func quantizeMLP(m *model.MLPWeights, bits int) (*model.MLPWeights, error) {
	g, err := quantizeWeight(m.WGate, bits)
	if err != nil {
		return nil, err
	}
	u, err := quantizeWeight(m.WUp, bits)
	if err != nil {
		return nil, err
	}
	dn, err := quantizeWeight(m.WDown, bits)
	if err != nil {
		return nil, err
	}
	return &model.MLPWeights{WGate: g, WUp: u, WDown: dn}, nil
}

// In returns the input dimension.
func (w *Weight) In() int { return w.in }

// Out returns the output dimension.
func (w *Weight) Out() int { return w.out }

// Bits returns the code width (4 or 8).
func (w *Weight) Bits() int { return w.bits }

// StorageBits returns the number of fault-addressable bits per element:
// the code width (scales are assumed ECC-protected metadata, the common
// deployment assumption; the paper flips weight storage).
func (w *Weight) StorageBits() int { return w.bits }

// Get returns the dequantized value at (r, c).
func (w *Weight) Get(r, c int) float64 {
	g := r / GroupSize
	return float64(w.codes[r*w.out+c]) * float64(w.scales[g*w.out+c])
}

// Forward computes out = x · Wdeq, dequantizing on the fly per group.
func (w *Weight) Forward(out, x []float32) {
	if len(x) != w.in || len(out) != w.out {
		panic("quant: Forward shape mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	n := w.out
	for r, xv := range x {
		if xv == 0 {
			continue
		}
		g := r / GroupSize
		crow := w.codes[r*n : (r+1)*n]
		srow := w.scales[g*n : (g+1)*n]
		for c, code := range crow {
			out[c] += xv * float32(code) * srow[c]
		}
	}
}

// Struck returns the view of w with the given bit positions (0 = LSB) of
// the code at (r, c) flipped — a memory fault striking the quantized
// weight storage. Its column is Forward's per-column sequence: from +0,
// inputs ascending, zero inputs skipped, xv·code·scale added in float32.
func (w *Weight) Struck(r, c int, bitsPos []int) *model.StruckWeight {
	n := w.out
	code := w.flipCode(w.codes[r*n+c], bitsPos)
	value := float64(code) * float64(w.scales[(r/GroupSize)*n+c])
	return model.NewStruck(w, r, c, value, func(x []float32) float32 {
		var s float32
		for p, xv := range x {
			if xv == 0 {
				continue
			}
			q := w.codes[p*n+c]
			if p == r {
				q = code
			}
			s += xv * float32(q) * w.scales[(p/GroupSize)*n+c]
		}
		return s
	})
}

// flipCode returns code with the given bit positions flipped, wrapping
// within the code's bit width using two's complement.
func (w *Weight) flipCode(code int8, bitsPos []int) int8 {
	u := uint8(code)
	for _, b := range bitsPos {
		if b < 0 || b >= w.bits {
			panic(fmt.Sprintf("quant: bit %d out of range for int%d", b, w.bits))
		}
		u ^= 1 << uint(b)
	}
	if w.bits == 4 {
		// Sign-extend the low nibble so the code remains a valid INT4.
		u &= 0x0F
		if u&0x08 != 0 {
			u |= 0xF0
		}
	}
	return int8(u)
}

// FlipBits flips the given bit positions of the code at (r, c) in place
// and returns a restorer. Inference never calls it; it is the
// storage-flip oracle the overlay (Struck) is pinned to.
func (w *Weight) FlipBits(r, c int, bitsPos []int) func() {
	idx := r*w.out + c
	old := w.codes[idx]
	w.codes[idx] = w.flipCode(old, bitsPos)
	return func() { w.codes[idx] = old }
}

// CloneWeight returns a deep copy.
func (w *Weight) CloneWeight() model.Weight {
	nw := &Weight{
		in: w.in, out: w.out, bits: w.bits, groups: w.groups,
		codes:  append([]int8(nil), w.codes...),
		scales: append([]float32(nil), w.scales...),
	}
	return nw
}

// MaxPerturbation returns the largest possible |Δweight| a single-element
// fault can cause at (r, c): the full code range times the group scale.
// It quantifies Observation #8's bound.
func (w *Weight) MaxPerturbation(r, c int) float64 {
	g := r / GroupSize
	return float64(w.scales[g*w.out+c]) * float64(int(1)<<uint(w.bits))
}
