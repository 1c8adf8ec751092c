package model

import "repro/internal/tensor"

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
// enters at, the sublayer it starts at (0, or a depth fork's while it
// matches its prefix), and its observers.
type stackRow struct {
	st       *State
	pos, tok int
	from     int
	obs      Observers
}

// row is the stack row of the state's position pos fed tok under obs.
// Rows are made in position order, each before the pass that runs it: a
// depth fork decides here, once per position, whether the pass may skip
// (skipTo).
func (st *State) row(pos, tok int, obs *Observers) stackRow {
	return stackRow{st: st, pos: pos, tok: tok, from: st.skipTo(pos, tok), obs: *obs}
}

// stack is the scratch of a stacked forward pass, one activation row per
// stackRow. A pass touches only rows [r0, r1) of each tensor.
type stack struct {
	x, h, q, kb, vb, a, d *tensor.Tensor // rows × DModel
	ff1, ff2, ffa         *tensor.Tensor // rows × FFHidden
	r                     *tensor.Tensor // rows × NumExperts (MoE only)
	mo                    *tensor.Tensor // rows × DModel: an expert's output (MoE only)
	sel                   []int          // rows × TopK: the selected experts (MoE only)
	probs                 []float32      // rows × TopK: their mixing weights (MoE only)
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
		k := min(cfg.TopK, cfg.NumExperts)
		sk.r = tensor.New(rows, cfg.NumExperts)
		sk.mo = tensor.New(rows, cfg.DModel)
		sk.sel = make([]int, rows*k)
		sk.probs = make([]float32, rows*k)
	}
	return sk
}

// linearRows runs rows [r0, r1) of in through w into out — one GEMM over
// up to workers goroutines when the weight supports it — and then
// finishes each output row under its own row's observers, in row order.
// A row whose strike addresses ref has the one column the strike changes
// recomputed first (StruckWeight). in is row-aligned with out: a checker
// verifies each row against the exact input row its GEMM consumed.
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
		rw := w
		if sw := row.obs.struck(ref); sw != nil {
			out.Row(i)[sw.Col] = sw.column(in.Row(i))
			rw = sw
		}
		m.finishLinear(&row.obs, ref, row.pos, rw, in.Row(i), out.Row(i))
	}
}

// forwardStack runs rows [r0, r1) through the transformer as one stacked
// pass — embed, every block, final norm — leaving each row's normalised
// residual in sk.x for the caller's LM head. Prefill stacks the positions
// of one prompt and spends its thread budget inside each GEMM; Batch.Step
// stacks its independent trials with workers = 1, or runs them one row
// per pass on several goroutines; DecodeStep is the one-row pass.
//
// Every value a row computes, shows an observer or writes to its KV cache
// is bit-identical to that row going through the pass alone, one row per
// pass in position order (State.DecodeStep, the seed's per-token loop):
//
//   - Norms, RoPE, SwiGLU, MoE routing and the residual adds act on one
//     row at a time, and the GEMM's per-row accumulation order is
//     MatVec's, so a row's arithmetic does not depend on which rows are
//     stacked with it, on [r0, r1), or on workers.
//   - A row's observers run once per layer on that row only, in the
//     block's layer order (stacking makes the global order layer-major,
//     never a row's own), and attention hooks fire after the head mix and
//     before out-proj. A row's strike is read only by that row: its
//     embedding row, its norm gain, or the one column of its struck
//     linear that the flipped element feeds (linearRows).
//   - Attention at (state, pos) reads that state's K/V rows 0..pos. Rows
//     sharing a state must be at consecutive ascending positions in row
//     order, and must not be split across concurrent calls; each block
//     writes every row's K/V before any row attends, so the later
//     positions a row cannot yet have seen are present but never read.
//
// A row with from > 0 is a depth fork's matched position (depth.go): it
// enters at sublayer from with the residual its prefix recorded there and
// runs only the sublayers from on, reading the skipped blocks' K/V rows
// from the prefix — the values those sublayers would have computed. Rows
// starting at different sublayers run as consecutive passes, one per run
// of equal starts in row order; a prompt's matched positions precede the
// rest, so each pass's rows attend only over rows already written. A
// recording state (RecordDepth) keeps the residual at the start of each
// sublayer, and the token, of every row at or past the position it
// records from.
//
// The caller has made room for every row's position in its state's cache
// (State.reserveNext) before the pass, on one goroutine.
//
// Concurrent calls on disjoint row ranges over disjoint states share only
// what a pass never writes: weights, strikes, RoPE tables, a checker's
// checksum table, the Prefix several states may read their first rows
// from.
func (m *Model) forwardStack(sk *stack, rows []stackRow, r0, r1, workers int) {
	from := rows[r0].from
	for r := r0 + 1; r < r1; r++ {
		if rows[r].from != from {
			m.forwardStack(sk, rows, r0, r, workers)
			m.forwardStack(sk, rows, r, r1, workers)
			return
		}
	}
	cfg := &m.Cfg

	// span is the range's slice of a stacked tensor's data.
	span := func(t *tensor.Tensor) []float32 { return t.Data[r0*t.Cols : r1*t.Cols] }
	normRows := func(t *tensor.Tensor, ref LayerRef, gain []float32) {
		for i := r0; i < r1; i++ {
			tensor.RMSNormRow(t.Row(i), rows[i].obs.gain(ref, gain), cfg.Eps)
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
	// record keeps each recording row's residual entering sublayer s > 0
	// (sublayer 0's is the embedding row: no fork starts there).
	record := func(s int) {
		for i := r0; i < r1; i++ {
			if rec := rows[i].st.rec; rec.covers(rows[i].pos) {
				copy(rec.at(s, rows[i].pos, cfg.DModel), sk.x.Row(i))
			}
		}
	}

	for i := r0; i < r1; i++ {
		row := &rows[i]
		if from > 0 {
			copy(sk.x.Row(i), row.st.base.depth.at(from, row.pos, cfg.DModel))
			continue
		}
		if rec := row.st.rec; rec.covers(row.pos) {
			rec.toks[row.pos-rec.lo] = row.tok
		}
		tok := row.tok
		if tok < 0 || tok >= cfg.Vocab {
			tok = 0
		}
		copy(sk.x.Row(i), row.obs.embedding(m, tok))
	}

	for bi := from / 2; bi < len(m.Blocks); bi++ {
		blk := m.Blocks[bi]
		if 2*bi >= from {
			// --- attention sub-block ---
			if bi > 0 {
				record(2 * bi)
			}
			copy(span(sk.h), span(sk.x))
			normRows(sk.h, LayerRef{bi, KindAttnNorm, -1}, blk.AttnNorm)

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
				for _, h := range row.obs.AttnHooks {
					h(attnRef, row.pos, sk.a.Row(i))
				}
			}

			linear(LayerRef{bi, KindOut, -1}, blk.Wo, sk.a, sk.h)
			addRows(sk.x, sk.h)
		}

		// --- MLP / MoE sub-block ---
		record(2*bi + 1)
		copy(span(sk.h), span(sk.x))
		normRows(sk.h, LayerRef{bi, KindMLPNorm, -1}, blk.MLPNorm)

		if blk.Router != nil {
			linear(LayerRef{bi, KindRouter, -1}, blk.Router, sk.h, sk.r)
			for i := r0; i < r1; i++ {
				m.moeMix(sk, &rows[i], i, blk, bi)
			}
		} else {
			linear(LayerRef{bi, KindGate, -1}, blk.MLP.WGate, sk.h, sk.ff1)
			linear(LayerRef{bi, KindUp, -1}, blk.MLP.WUp, sk.h, sk.ff2)
			tensor.SiLUMul(span(sk.ffa), span(sk.ff1), span(sk.ff2))
			linear(LayerRef{bi, KindDown, -1}, blk.MLP.WDown, sk.ffa, sk.d)
		}
		addRows(sk.x, sk.d)
	}

	normRows(sk.x, LayerRef{-1, KindFinalNorm, -1}, m.FinalNorm)
}
