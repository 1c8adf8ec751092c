package train

import (
	"math"

	"repro/internal/model"
	"repro/internal/prng"
	"repro/internal/tensor"
)

// NewTrainable builds a trainable model with small Gaussian init.
func NewTrainable(cfg model.Config, seed uint64) (*Trainable, error) {
	cfg.DType = 0 // training always runs FP32
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := prng.New(seed ^ 0x7261696e)
	d, ff := cfg.DModel, cfg.FFHidden
	sigma := 0.6 / math.Sqrt(float64(d))

	tr := &Trainable{Cfg: cfg}
	tr.Embed = newParam(cfg.Vocab, d, false)
	fillNorm(tr.Embed.W, src.Split(0), sigma)
	tr.LMHead = newParam(d, cfg.Vocab, true)
	fillNorm(tr.LMHead.W, src.Split(1), sigma)
	tr.FinalNorm = newParam(1, d, false)
	tr.FinalNorm.W.Fill(1)

	for b := 0; b < cfg.NBlocks; b++ {
		bs := src.Split(uint64(10 + b))
		blk := &TBlock{
			AttnNorm: newParam(1, d, false),
			MLPNorm:  newParam(1, d, false),
			Wq:       newParam(d, d, true),
			Wk:       newParam(d, d, true),
			Wv:       newParam(d, d, true),
			Wo:       newParam(d, d, true),
			WGate:    newParam(d, ff, true),
			WUp:      newParam(d, ff, true),
			WDown:    newParam(ff, d, true),
		}
		blk.AttnNorm.W.Fill(1)
		blk.MLPNorm.W.Fill(1)
		fillNorm(blk.Wq.W, bs.Split(0), sigma)
		fillNorm(blk.Wk.W, bs.Split(1), sigma)
		fillNorm(blk.Wv.W, bs.Split(2), sigma)
		fillNorm(blk.Wo.W, bs.Split(3), sigma)
		fillNorm(blk.WGate.W, bs.Split(4), sigma)
		fillNorm(blk.WUp.W, bs.Split(5), sigma)
		fillNorm(blk.WDown.W, bs.Split(6), 0.6/math.Sqrt(float64(ff)))
		tr.Blocks = append(tr.Blocks, blk)
	}
	tr.initRope()
	return tr, nil
}

func fillNorm(t *tensor.Tensor, src *prng.Source, sigma float64) {
	for i := range t.Data {
		t.Data[i] = float32(src.NormFloat64() * sigma)
	}
}

func (tr *Trainable) initRope() {
	cfg := &tr.Cfg
	hd := cfg.DModel / cfg.NHeads
	tr.ropeCos = make([][]float32, cfg.MaxSeq)
	tr.ropeSin = make([][]float32, cfg.MaxSeq)
	for p := 0; p < cfg.MaxSeq; p++ {
		cosT := make([]float32, hd/2)
		sinT := make([]float32, hd/2)
		for i := 0; i < hd/2; i++ {
			freq := 1 / math.Pow(cfg.RopeTheta, float64(2*i)/float64(hd))
			ang := float64(p) * freq
			cosT[i] = float32(math.Cos(ang))
			sinT[i] = float32(math.Sin(ang))
		}
		tr.ropeCos[p] = cosT
		tr.ropeSin[p] = sinT
	}
}

// blockCache stores the intermediates one block needs for backprop.
type blockCache struct {
	xIn     *tensor.Tensor // block input, T x d
	hNorm   *tensor.Tensor // RMSNorm(xIn)
	invA    []float64      // per-row inv factors of the attention norm
	q, k, v *tensor.Tensor // post-RoPE q/k, plain v (T x d)
	probs   []*tensor.Tensor
	concat  *tensor.Tensor // attention head concat (T x d)
	x2      *tensor.Tensor // after attention residual
	h2Norm  *tensor.Tensor // RMSNorm(x2)
	invM    []float64
	g, u    *tensor.Tensor // gate/up projections (T x ff)
	act     *tensor.Tensor // silu(g) * u
}

// seqCache holds everything the backward pass of one sequence needs.
type seqCache struct {
	T      int
	tokens []int
	x0     *tensor.Tensor
	blocks []*blockCache
	xPre   *tensor.Tensor // input to final norm
	invF   []float64
	xNorm  *tensor.Tensor
	logits *tensor.Tensor
}

// forwardSeq runs teacher-forced forward over tokens[0:T] producing
// logits for each position.
func (tr *Trainable) forwardSeq(tokens []int) *seqCache {
	cfg := &tr.Cfg
	T, d := len(tokens), cfg.DModel
	sc := &seqCache{T: T, tokens: tokens}

	x := tensor.New(T, d)
	for t, tok := range tokens {
		copy(x.Row(t), tr.Embed.W.Row(tok))
	}
	sc.x0 = x.Clone()

	for _, blk := range tr.Blocks {
		bc := &blockCache{xIn: x.Clone()}
		// Attention norm.
		bc.hNorm, bc.invA = tr.rmsNorm(x, blk.AttnNorm)
		// Projections.
		bc.q = tensor.New(T, d)
		bc.k = tensor.New(T, d)
		bc.v = tensor.New(T, d)
		tensor.MatMul(bc.q, bc.hNorm, blk.Wq.W)
		tensor.MatMul(bc.k, bc.hNorm, blk.Wk.W)
		tensor.MatMul(bc.v, bc.hNorm, blk.Wv.W)
		tr.ropeAll(bc.q, +1)
		tr.ropeAll(bc.k, +1)
		// Attention per head.
		bc.probs, bc.concat = tr.attention(bc.q, bc.k, bc.v)
		// Output projection + residual.
		attnOut := tensor.New(T, d)
		tensor.MatMul(attnOut, bc.concat, blk.Wo.W)
		x.AddInPlace(attnOut)
		bc.x2 = x.Clone()
		// MLP norm.
		bc.h2Norm, bc.invM = tr.rmsNorm(x, blk.MLPNorm)
		// SwiGLU.
		ff := cfg.FFHidden
		bc.g = tensor.New(T, ff)
		bc.u = tensor.New(T, ff)
		tensor.MatMul(bc.g, bc.h2Norm, blk.WGate.W)
		tensor.MatMul(bc.u, bc.h2Norm, blk.WUp.W)
		bc.act = tensor.New(T, ff)
		tensor.SiLUMul(bc.act.Data, bc.g.Data, bc.u.Data)
		mlpOut := tensor.New(T, d)
		tensor.MatMul(mlpOut, bc.act, blk.WDown.W)
		x.AddInPlace(mlpOut)
		sc.blocks = append(sc.blocks, bc)
	}

	sc.xPre = x.Clone()
	sc.xNorm, sc.invF = tr.rmsNorm(x, tr.FinalNorm)
	sc.logits = tensor.New(T, cfg.Vocab)
	tensor.MatMul(sc.logits, sc.xNorm, tr.LMHead.W)
	return sc
}

// rmsNorm normalizes each row of x by RMS and applies gain, returning the
// normalized tensor and the per-row inverse factors.
func (tr *Trainable) rmsNorm(x *tensor.Tensor, gain *Param) (*tensor.Tensor, []float64) {
	d := x.Cols
	out := tensor.New(x.Rows, d)
	inv := make([]float64, x.Rows)
	g := gain.W.Data
	for t := 0; t < x.Rows; t++ {
		row := x.Row(t)
		var ss float64
		for _, v := range row {
			ss += float64(v) * float64(v)
		}
		iv := 1 / math.Sqrt(ss/float64(d)+float64(tr.Cfg.Eps))
		inv[t] = iv
		orow := out.Row(t)
		for i, v := range row {
			orow[i] = float32(float64(v)*iv) * g[i]
		}
	}
	return out, inv
}

// ropeAll applies RoPE to every row (position = row index). dir +1
// rotates forward, -1 applies the transpose (backward).
func (tr *Trainable) ropeAll(x *tensor.Tensor, dir float32) {
	hd := tr.Cfg.DModel / tr.Cfg.NHeads
	for t := 0; t < x.Rows; t++ {
		cosT, sinT := tr.ropeCos[t], tr.ropeSin[t]
		row := x.Row(t)
		for h := 0; h < tr.Cfg.NHeads; h++ {
			off := h * hd
			for i := 0; i < hd/2; i++ {
				c, s := cosT[i], dir*sinT[i]
				a, b := row[off+2*i], row[off+2*i+1]
				row[off+2*i] = a*c - b*s
				row[off+2*i+1] = a*s + b*c
			}
		}
	}
}

// attention computes causal softmax attention per head, returning the
// probability matrices (per head, T x T) and the concatenated output.
func (tr *Trainable) attention(q, k, v *tensor.Tensor) ([]*tensor.Tensor, *tensor.Tensor) {
	cfg := &tr.Cfg
	T := q.Rows
	hd := cfg.DModel / cfg.NHeads
	scale := 1 / math.Sqrt(float64(hd))
	probs := make([]*tensor.Tensor, cfg.NHeads)
	concat := tensor.New(T, cfg.DModel)
	for h := 0; h < cfg.NHeads; h++ {
		off := h * hd
		P := tensor.New(T, T)
		for t := 0; t < T; t++ {
			qrow := q.Row(t)[off : off+hd]
			prow := P.Row(t)
			for j := 0; j <= t; j++ {
				krow := k.Row(j)[off : off+hd]
				var dot float64
				for i, qv := range qrow {
					dot += float64(qv) * float64(krow[i])
				}
				prow[j] = float32(dot * scale)
			}
			for j := t + 1; j < T; j++ {
				prow[j] = float32(math.Inf(-1))
			}
			tensor.SoftmaxRow(prow)
		}
		probs[h] = P
		for t := 0; t < T; t++ {
			orow := concat.Row(t)[off : off+hd]
			prow := P.Row(t)
			for j := 0; j <= t; j++ {
				w := prow[j]
				if w == 0 {
					continue
				}
				vrow := v.Row(j)[off : off+hd]
				for i, vv := range vrow {
					orow[i] += w * vv
				}
			}
		}
	}
	return probs, concat
}

func siluGrad(x float32) float32 {
	s := 1 / (1 + math.Exp(-float64(x)))
	return float32(s * (1 + float64(x)*(1-s)))
}
