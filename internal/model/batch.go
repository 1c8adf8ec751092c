package model

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// DecodeRow is one in-flight trial's slot in a decode batch: its private
// KV-cache state over the shared weights, the token to decode this step,
// the trial's own observation context (fault hook, extra hooks, probe,
// ABFT checker), and the buffer its next-token logits are copied into.
type DecodeRow struct {
	// St is the trial's inference state. It must be bound to the same
	// model the Batch was created from (ForkFor onto the worker clone).
	St *State
	// Tok is the token to decode this step.
	Tok int
	// Hooks fire on every linear-layer output of this row only, in
	// order — the per-row analogue of Model.AddHook. The model's own
	// registered hooks do NOT fire during Batch.Step; a scheduler that
	// wants them must place them in each row's slice.
	Hooks []Hook
	// Checker, when non-nil, verifies this row's linear outputs — the
	// per-row analogue of Model.SetChecker.
	Checker LinearChecker
	// AttnHooks fire on this row's post-attention activation (kind
	// KindAttnAct) each block, after the head mix and before out_proj —
	// the per-row analogue of Model.AddAttnHook. Empty slices cost
	// nothing: the batched step is bit-identical with no hooks present.
	AttnHooks []Hook
	// Logits receives the row's next-token logits (len Vocab). The row
	// owns the buffer; it is overwritten each step.
	Logits []float32
}

func (r *DecodeRow) rc() rowCtx { return rowCtx{hooks: r.Hooks, checker: r.Checker} }

// Batch is a continuous-batching decode engine: capacity-sized activation
// tensors over one model's weights, stepping up to capacity independent
// trial states through one stacked forward pass per token. Rows are
// independent — each reads and writes only its own State's KV cache, its
// own hooks and checker observe only its own activation rows, and every
// computed value is bit-identical to the same trial stepping alone
// through State.DecodeStep (the batched GEMM's per-row accumulation
// order matches MatVec, and norms, RoPE, attention, SwiGLU, and MoE
// routing act on rows independently). A Batch must not be shared between
// goroutines.
type Batch struct {
	m   *Model
	cap int

	// Stacked activations, capacity × dim; only the leading len(rows)
	// rows of each are touched by a Step.
	x, h, q, kb, vb, a, d *tensor.Tensor // capacity × DModel
	ff1, ff2, ffa         *tensor.Tensor // capacity × FFHidden
	r                     *tensor.Tensor // capacity × NumExperts (MoE only)
	l                     *tensor.Tensor // capacity × Vocab
}

// NewBatch allocates a decode batch engine of the given capacity over m.
func (m *Model) NewBatch(capacity int) *Batch {
	if capacity < 1 {
		panic("model: batch capacity must be at least 1")
	}
	cfg := &m.Cfg
	b := &Batch{
		m:   m,
		cap: capacity,
		x:   tensor.New(capacity, cfg.DModel),
		h:   tensor.New(capacity, cfg.DModel),
		q:   tensor.New(capacity, cfg.DModel),
		kb:  tensor.New(capacity, cfg.DModel),
		vb:  tensor.New(capacity, cfg.DModel),
		a:   tensor.New(capacity, cfg.DModel),
		d:   tensor.New(capacity, cfg.DModel),
		ff1: tensor.New(capacity, cfg.FFHidden),
		ff2: tensor.New(capacity, cfg.FFHidden),
		ffa: tensor.New(capacity, cfg.FFHidden),
		l:   tensor.New(capacity, cfg.Vocab),
	}
	if cfg.IsMoE() {
		b.r = tensor.New(capacity, cfg.NumExperts)
	}
	return b
}

// Capacity returns the maximum number of rows a Step may carry.
func (b *Batch) Capacity() int { return b.cap }

// Step decodes one token for every row: each row's Tok enters at its
// state's position, the linear layers run as one stacked GEMM over all
// rows, and each row's next-token logits land in its Logits buffer with
// its state advanced by one. Rows may sit at different positions. The
// model's registered hooks and checker are ignored; each row's own
// Hooks/Checker observe its rows (see DecodeRow).
func (b *Batch) Step(rows []*DecodeRow) {
	n := len(rows)
	if n == 0 {
		return
	}
	if n > b.cap {
		panic(fmt.Sprintf("model: decode batch of %d exceeds capacity %d", n, b.cap))
	}
	m := b.m
	cfg := &m.Cfg
	threads := m.matmulThreads()

	for i, row := range rows {
		if row.St.m != m {
			panic("model: decode row state bound to a different model")
		}
		if row.St.Pos >= cfg.MaxSeq {
			panic(fmt.Sprintf("model: context overflow (max %d)", cfg.MaxSeq))
		}
		if len(row.Logits) != cfg.Vocab {
			panic("model: decode row logits buffer has wrong length")
		}
		tok := row.Tok
		if tok < 0 || tok >= cfg.Vocab {
			tok = 0
		}
		copy(b.x.Row(i), m.Embed.Row(tok))
	}

	// finishRows applies each row's own context to its output row, in
	// row order — the per-trial hook/checker dispatch that keeps every
	// trial's observations identical to its serial run.
	finishRows := func(ref LayerRef, w Weight, in, out *tensor.Tensor) {
		for i, row := range rows {
			m.finishLinearRC(row.rc(), ref, row.St.Pos, w, in.Row(i), out.Row(i))
		}
	}
	normRows := func(t *tensor.Tensor, gain []float32) {
		for i := 0; i < n; i++ {
			tensor.RMSNormRow(t.Row(i), gain, cfg.Eps)
		}
	}
	addRows := func(dst, src *tensor.Tensor) {
		for i := 0; i < n; i++ {
			drow, srow := dst.Row(i), src.Row(i)
			for j := range drow {
				drow[j] += srow[j]
			}
		}
	}

	for bi, blk := range m.Blocks {
		// --- attention sub-block ---
		for i := 0; i < n; i++ {
			copy(b.h.Row(i), b.x.Row(i))
		}
		normRows(b.h, blk.AttnNorm)

		forwardRows(blk.Wq, b.q, b.h, n, threads)
		finishRows(LayerRef{bi, KindQ, -1}, blk.Wq, b.h, b.q)
		forwardRows(blk.Wk, b.kb, b.h, n, threads)
		finishRows(LayerRef{bi, KindK, -1}, blk.Wk, b.h, b.kb)
		forwardRows(blk.Wv, b.vb, b.h, n, threads)
		finishRows(LayerRef{bi, KindV, -1}, blk.Wv, b.h, b.vb)

		for i, row := range rows {
			pos := row.St.Pos
			m.applyRoPE(b.q.Row(i), pos)
			m.applyRoPE(b.kb.Row(i), pos)
			copy(row.St.K[bi].Row(pos), b.kb.Row(i))
			copy(row.St.V[bi].Row(pos), b.vb.Row(i))
		}
		for i, row := range rows {
			m.attendAt(row.St, bi, row.St.Pos, b.q.Row(i), b.a.Row(i))
			if len(row.AttnHooks) > 0 {
				ref := LayerRef{bi, KindAttnAct, -1}
				for _, h := range row.AttnHooks {
					h(ref, row.St.Pos, b.a.Row(i))
				}
			}
		}

		forwardRows(blk.Wo, b.h, b.a, n, threads)
		finishRows(LayerRef{bi, KindOut, -1}, blk.Wo, b.a, b.h)
		addRows(b.x, b.h)

		// --- MLP / MoE sub-block ---
		for i := 0; i < n; i++ {
			copy(b.h.Row(i), b.x.Row(i))
		}
		normRows(b.h, blk.MLPNorm)

		if blk.Router != nil {
			forwardRows(blk.Router, b.r, b.h, n, threads)
			finishRows(LayerRef{bi, KindRouter, -1}, blk.Router, b.h, b.r)
			for i, row := range rows {
				m.moeMix(row.rc(), row.St, blk, bi, row.St.Pos, b.r.Row(i), b.h.Row(i), b.d.Row(i))
			}
		} else {
			forwardRows(blk.MLP.WGate, b.ff1, b.h, n, threads)
			finishRows(LayerRef{bi, KindGate, -1}, blk.MLP.WGate, b.h, b.ff1)
			forwardRows(blk.MLP.WUp, b.ff2, b.h, n, threads)
			finishRows(LayerRef{bi, KindUp, -1}, blk.MLP.WUp, b.h, b.ff2)
			for i := 0; i < n*cfg.FFHidden; i++ {
				g := b.ff1.Data[i]
				b.ffa.Data[i] = float32(float64(g)/(1+math.Exp(-float64(g)))) * b.ff2.Data[i]
			}
			forwardRows(blk.MLP.WDown, b.d, b.ffa, n, threads)
			finishRows(LayerRef{bi, KindDown, -1}, blk.MLP.WDown, b.ffa, b.d)
		}
		addRows(b.x, b.d)
	}

	normRows(b.x, m.FinalNorm)
	forwardRows(m.LMHead, b.l, b.x, n, threads)
	finishRows(LayerRef{-1, KindLMHead, -1}, m.LMHead, b.x, b.l)

	for i, row := range rows {
		copy(row.Logits, b.l.Row(i))
		row.St.Pos++
	}
}
