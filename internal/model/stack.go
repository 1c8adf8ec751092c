package model

import (
	"math"

	"repro/internal/tensor"
)

// rowsForwarder is implemented by weights that can push a contiguous
// range of an activation tensor's rows through the layer at once, leaving
// the rest of out untouched. Implementations must keep every computed row
// bit-identical to Forward on that row; Dense reuses the row-parallel
// matmul, whose per-row accumulation order matches MatVec. Weights
// without the interface (e.g. quantized storage) fall back to a per-row
// Forward loop, which is trivially identical.
type rowsForwarder interface {
	ForwardRows(out, x *tensor.Tensor, r0, r1, workers int)
}

// ForwardRows computes rows [r0, r1) of out = x · W with up to workers
// goroutines.
func (d *Dense) ForwardRows(out, x *tensor.Tensor, r0, r1, workers int) {
	tensor.MatMulRange(out, x, d.T, r0, r1, workers)
}

// stackRow is one activation row of a stacked forward pass: the state
// whose KV cache it extends and attends over, the position and token it
// enters at, and the observers of its linear outputs (rc) and of its
// post-attention activation (attnHooks).
type stackRow struct {
	st        *State
	pos, tok  int
	rc        rowCtx
	attnHooks []Hook
}

// stack is the scratch of a stacked forward pass, one activation row per
// stackRow. A pass touches only rows [r0, r1) of each tensor.
type stack struct {
	x, h, q, kb, vb, a, d *tensor.Tensor // rows × DModel
	ff1, ff2, ffa         *tensor.Tensor // rows × FFHidden
	r                     *tensor.Tensor // rows × NumExperts (MoE only)
}

func (m *Model) newStack(rows int) *stack {
	cfg := &m.Cfg
	sk := &stack{
		x:   tensor.New(rows, cfg.DModel), // residual stream
		h:   tensor.New(rows, cfg.DModel), // normed input / out-projection
		q:   tensor.New(rows, cfg.DModel),
		kb:  tensor.New(rows, cfg.DModel), // key rows (pre-cache)
		vb:  tensor.New(rows, cfg.DModel), // value rows (pre-cache)
		a:   tensor.New(rows, cfg.DModel), // concatenated head outputs
		d:   tensor.New(rows, cfg.DModel), // MLP / MoE block output
		ff1: tensor.New(rows, cfg.FFHidden),
		ff2: tensor.New(rows, cfg.FFHidden),
		ffa: tensor.New(rows, cfg.FFHidden),
	}
	if cfg.IsMoE() {
		sk.r = tensor.New(rows, cfg.NumExperts)
	}
	return sk
}

// linearRows runs rows [r0, r1) of in through w into out — one GEMM over
// up to workers goroutines when the weight supports it — and then
// finishes each output row under its own row's observers, in row order.
// in is row-aligned with out: a checker verifies each row against the
// exact input row its GEMM consumed.
func (m *Model) linearRows(rows []stackRow, ref LayerRef, w Weight, in, out *tensor.Tensor, r0, r1, workers int) {
	if rf, ok := w.(rowsForwarder); ok {
		rf.ForwardRows(out, in, r0, r1, workers)
	} else {
		for i := r0; i < r1; i++ {
			w.Forward(out.Row(i), in.Row(i))
		}
	}
	for i := r0; i < r1; i++ {
		row := &rows[i]
		m.finishLinearRC(row.rc, ref, row.pos, w, in.Row(i), out.Row(i))
	}
}

// forwardStack runs rows [r0, r1) through the transformer as one stacked
// pass — embed, every block, final norm — leaving each row's normalised
// residual in sk.x for the caller's LM head. Prefill stacks the positions
// of one prompt and spends its thread budget inside each GEMM; every
// shard of Batch.Step stacks its range of independent trials with
// workers = 1.
//
// Every value a row computes, shows an observer or writes to its KV cache
// is bit-identical to that row going through State.DecodeStep alone, in
// position order:
//
//   - Norms, RoPE, SwiGLU, MoE routing and the residual adds act on one
//     row at a time, and the GEMM's per-row accumulation order is
//     MatVec's, so a row's arithmetic does not depend on which rows are
//     stacked with it, on [r0, r1), or on workers.
//   - A row's observers run once per layer on that row only, in
//     DecodeStep's layer order (stacking makes the global order
//     layer-major, never a row's own), and attention hooks fire after
//     the head mix and before out-proj.
//   - Attention at (state, pos) reads that state's K/V rows 0..pos. Rows
//     sharing a state must be at consecutive ascending positions in row
//     order, and must not be split across concurrent calls; each block
//     writes every row's K/V before any row attends, so the later
//     positions a row cannot yet have seen are present but never read.
//
// The caller has made room for every row's position in its state's cache
// (State.reserveNext) before the pass, on one goroutine.
//
// Concurrent calls on disjoint row ranges over disjoint states share only
// what a pass never writes: weights, RoPE tables, a checker's checksum
// table, the Prefix several states may read their first rows from.
func (m *Model) forwardStack(sk *stack, rows []stackRow, r0, r1, workers int) {
	cfg := &m.Cfg

	// span is the range's slice of a stacked tensor's data.
	span := func(t *tensor.Tensor) []float32 { return t.Data[r0*t.Cols : r1*t.Cols] }
	normRows := func(t *tensor.Tensor, gain []float32) {
		for i := r0; i < r1; i++ {
			tensor.RMSNormRow(t.Row(i), gain, cfg.Eps)
		}
	}
	addRows := func(dst, src *tensor.Tensor) {
		d, s := span(dst), span(src)
		for j := range d {
			d[j] += s[j]
		}
	}
	linear := func(ref LayerRef, w Weight, in, out *tensor.Tensor) {
		m.linearRows(rows, ref, w, in, out, r0, r1, workers)
	}

	for i := r0; i < r1; i++ {
		tok := rows[i].tok
		if tok < 0 || tok >= cfg.Vocab {
			tok = 0
		}
		copy(sk.x.Row(i), m.Embed.Row(tok))
	}

	for bi, blk := range m.Blocks {
		// --- attention sub-block ---
		copy(span(sk.h), span(sk.x))
		normRows(sk.h, blk.AttnNorm)

		linear(LayerRef{bi, KindQ, -1}, blk.Wq, sk.h, sk.q)
		linear(LayerRef{bi, KindK, -1}, blk.Wk, sk.h, sk.kb)
		linear(LayerRef{bi, KindV, -1}, blk.Wv, sk.h, sk.vb)

		for i := r0; i < r1; i++ {
			row := &rows[i]
			m.applyRoPE(sk.q.Row(i), row.pos)
			m.applyRoPE(sk.kb.Row(i), row.pos)
			row.st.appendKV(bi, row.pos, sk.kb.Row(i), sk.vb.Row(i))
		}
		attnRef := LayerRef{bi, KindAttnAct, -1}
		for i := r0; i < r1; i++ {
			row := &rows[i]
			m.attendAt(row.st, bi, row.pos, sk.q.Row(i), sk.a.Row(i))
			for _, h := range row.attnHooks {
				h(attnRef, row.pos, sk.a.Row(i))
			}
		}

		linear(LayerRef{bi, KindOut, -1}, blk.Wo, sk.a, sk.h)
		addRows(sk.x, sk.h)

		// --- MLP / MoE sub-block ---
		copy(span(sk.h), span(sk.x))
		normRows(sk.h, blk.MLPNorm)

		if blk.Router != nil {
			linear(LayerRef{bi, KindRouter, -1}, blk.Router, sk.h, sk.r)
			for i := r0; i < r1; i++ {
				row := &rows[i]
				m.moeMix(row.rc, row.st, blk, bi, row.pos, sk.r.Row(i), sk.h.Row(i), sk.d.Row(i))
			}
		} else {
			linear(LayerRef{bi, KindGate, -1}, blk.MLP.WGate, sk.h, sk.ff1)
			linear(LayerRef{bi, KindUp, -1}, blk.MLP.WUp, sk.h, sk.ff2)
			gate, up, act := span(sk.ff1), span(sk.ff2), span(sk.ffa)
			for j, g := range gate {
				act[j] = float32(float64(g)/(1+math.Exp(-float64(g)))) * up[j]
			}
			linear(LayerRef{bi, KindDown, -1}, blk.MLP.WDown, sk.ffa, sk.d)
		}
		addRows(sk.x, sk.d)
	}

	normRows(sk.x, m.FinalNorm)
}
