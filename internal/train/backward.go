package train

import (
	"math"

	"repro/internal/tensor"
)

// LossAndGrad runs forward and backward over one token sequence.
// tokens[t] is the input at position t; the model is trained to predict
// tokens[t+1]. lossMask[t] selects which predictions contribute to the
// loss (true for the completion region). Gradients accumulate into the
// parameter .G buffers; call ZeroGrad before a new batch and Step after.
// It returns the mean cross-entropy over the masked positions.
func (tr *Trainable) LossAndGrad(tokens []int, lossMask []bool) float64 {
	return tr.LossAndGradIO(tokens[:len(tokens)-1], tokens[1:], lossMask)
}

// LossAndGradIO is LossAndGrad with decoupled inputs and labels:
// labels[t] is the target for position t, which may differ from
// inputs[t+1]. This trains denoising behaviour — showing the model a
// corrupted reasoning token while supervising the clean continuation
// teaches it to re-derive from the operands instead of trusting the
// chain, the recovery ability behind Observation #10.
func (tr *Trainable) LossAndGradIO(inputs, labels []int, lossMask []bool) float64 {
	sc := tr.forwardSeq(inputs)
	T := sc.T
	V := tr.Cfg.Vocab

	// Cross-entropy and dLogits.
	dLogits := tensor.New(T, V)
	count := 0
	for t := 0; t < T; t++ {
		if lossMask[t] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	invCount := 1 / float64(count)
	var loss float64
	for t := 0; t < T; t++ {
		if !lossMask[t] {
			continue
		}
		label := labels[t]
		row := sc.logits.Row(t)
		lsm := tensor.LogSoftmaxRow(row)
		loss -= lsm[label]
		drow := dLogits.Row(t)
		for i := range drow {
			drow[i] = float32(math.Exp(lsm[i]) * invCount)
		}
		drow[label] -= float32(invCount)
	}
	loss *= invCount

	tr.backwardSeq(sc, dLogits)
	return loss
}

// backwardSeq propagates dLogits back through the cached sequence,
// accumulating parameter gradients.
func (tr *Trainable) backwardSeq(sc *seqCache, dLogits *tensor.Tensor) {
	cfg := &tr.Cfg
	T, d := sc.T, cfg.DModel

	// LM head.
	dxNorm := tensor.New(T, d)
	tensor.MatMulT(dxNorm, dLogits, tr.LMHead.W)
	tensor.AddMatMulAT(tr.LMHead.G, sc.xNorm, dLogits)

	// Final norm.
	dx := tr.rmsNormBackward(sc.xPre, dxNorm, tr.FinalNorm, sc.invF)

	for b := len(tr.Blocks) - 1; b >= 0; b-- {
		blk := tr.Blocks[b]
		bc := sc.blocks[b]
		ff := cfg.FFHidden

		// ---- MLP backward: x = x2 + WDown(silu(g)*u) ----
		dAct := tensor.New(T, ff)
		tensor.MatMulT(dAct, dx, blk.WDown.W)
		tensor.AddMatMulAT(blk.WDown.G, bc.act, dx)

		dG := tensor.New(T, ff)
		dU := tensor.New(T, ff)
		for i, da := range dAct.Data {
			g := bc.g.Data[i]
			dU.Data[i] = da * tensor.SiLU(g)
			dG.Data[i] = da * bc.u.Data[i] * siluGrad(g)
		}
		dH2 := tensor.New(T, d)
		tensor.MatMulT(dH2, dG, blk.WGate.W)
		tmp := tensor.New(T, d)
		tensor.MatMulT(tmp, dU, blk.WUp.W)
		dH2.AddInPlace(tmp)
		tensor.AddMatMulAT(blk.WGate.G, bc.h2Norm, dG)
		tensor.AddMatMulAT(blk.WUp.G, bc.h2Norm, dU)

		dX2 := tr.rmsNormBackward(bc.x2, dH2, blk.MLPNorm, bc.invM)
		dX2.AddInPlace(dx) // residual branch

		// ---- attention backward: x2 = xIn + Wo(concat) ----
		dConcat := tensor.New(T, d)
		tensor.MatMulT(dConcat, dX2, blk.Wo.W)
		tensor.AddMatMulAT(blk.Wo.G, bc.concat, dX2)

		dQ, dK, dV := tr.attentionBackward(bc, dConcat)

		// RoPE backward: transpose rotation.
		tr.ropeAll(dQ, -1)
		tr.ropeAll(dK, -1)

		dHNorm := tensor.New(T, d)
		tensor.MatMulT(dHNorm, dQ, blk.Wq.W)
		tensor.MatMulT(tmp, dK, blk.Wk.W)
		dHNorm.AddInPlace(tmp)
		tensor.MatMulT(tmp, dV, blk.Wv.W)
		dHNorm.AddInPlace(tmp)
		tensor.AddMatMulAT(blk.Wq.G, bc.hNorm, dQ)
		tensor.AddMatMulAT(blk.Wk.G, bc.hNorm, dK)
		tensor.AddMatMulAT(blk.Wv.G, bc.hNorm, dV)

		dXIn := tr.rmsNormBackward(bc.xIn, dHNorm, blk.AttnNorm, bc.invA)
		dXIn.AddInPlace(dX2) // residual branch
		dx = dXIn
	}

	// Embedding.
	for t, tok := range sc.tokens {
		erow := tr.Embed.G.Row(tok)
		drow := dx.Row(t)
		for i, v := range drow {
			erow[i] += v
		}
	}
}

// rmsNormBackward computes dx for y = (x * inv) ⊙ g and accumulates the
// gain gradient. inv holds the cached per-row 1/RMS factors.
func (tr *Trainable) rmsNormBackward(x, dy *tensor.Tensor, gain *Param, inv []float64) *tensor.Tensor {
	d := x.Cols
	dx := tensor.New(x.Rows, d)
	g := gain.W.Data
	gg := gain.G.Data
	for t := 0; t < x.Rows; t++ {
		xrow, dyrow, dxrow := x.Row(t), dy.Row(t), dx.Row(t)
		iv := inv[t]
		var dot float64
		for i := range dyrow {
			dyg := float64(dyrow[i]) * float64(g[i])
			dot += dyg * float64(xrow[i])
			gg[i] += float32(float64(dyrow[i]) * float64(xrow[i]) * iv)
		}
		c := iv * iv * iv * dot / float64(d)
		for i := range dxrow {
			dxrow[i] = float32(float64(dyrow[i])*float64(g[i])*iv - float64(xrow[i])*c)
		}
	}
	return dx
}

// attentionBackward computes gradients w.r.t. the post-RoPE q, k and the
// v projections given the gradient of the concatenated head outputs.
func (tr *Trainable) attentionBackward(bc *blockCache, dConcat *tensor.Tensor) (dQ, dK, dV *tensor.Tensor) {
	cfg := &tr.Cfg
	T := dConcat.Rows
	hd := cfg.DModel / cfg.NHeads
	scale := 1 / math.Sqrt(float64(hd))
	dQ = tensor.New(T, cfg.DModel)
	dK = tensor.New(T, cfg.DModel)
	dV = tensor.New(T, cfg.DModel)

	dP := make([]float64, T)
	dS := make([]float64, T)
	for h := 0; h < cfg.NHeads; h++ {
		off := h * hd
		P := bc.probs[h]
		for t := 0; t < T; t++ {
			dArow := dConcat.Row(t)[off : off+hd]
			prow := P.Row(t)
			// dV[j] += P[t,j] * dA[t]; dP[t,j] = dA[t]·V[j]
			var dot float64
			for j := 0; j <= t; j++ {
				p := float64(prow[j])
				vrow := bc.v.Row(j)[off : off+hd]
				dvrow := dV.Row(j)[off : off+hd]
				var dpj float64
				for i, da := range dArow {
					dvrow[i] += float32(p * float64(da))
					dpj += float64(da) * float64(vrow[i])
				}
				dP[j] = dpj
				dot += dpj * p
			}
			// dS = P ⊙ (dP - Σ dP⊙P)
			for j := 0; j <= t; j++ {
				dS[j] = float64(prow[j]) * (dP[j] - dot)
			}
			// dQ[t] += scale * Σ_j dS[j] * K[j]; dK[j] += scale*dS[j]*Q[t]
			dqrow := dQ.Row(t)[off : off+hd]
			qrow := bc.q.Row(t)[off : off+hd]
			for j := 0; j <= t; j++ {
				ds := dS[j] * scale
				if ds == 0 {
					continue
				}
				krow := bc.k.Row(j)[off : off+hd]
				dkrow := dK.Row(j)[off : off+hd]
				for i := range dqrow {
					dqrow[i] += float32(ds * float64(krow[i]))
					dkrow[i] += float32(ds * float64(qrow[i]))
				}
			}
		}
	}
	return dQ, dK, dV
}
