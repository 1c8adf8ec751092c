package model

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// DecodeRow is one in-flight trial's slot in a decode batch: its private
// KV-cache state over the shared weights, the token to decode this step,
// the trial's own observation context (fault hook, extra hooks, probe,
// ABFT checker), and the buffer its next-token logits are copied into.
//
// One row's observers fire in the serial order, on one goroutine per
// step. Observers of different rows may run concurrently inside a step
// (Batch.Step shards its rows), so whatever they touch must be private
// to the row or synchronised — as mitigate.Restrictor's atomic counters
// are. That is the rule concurrent campaign workers already put on
// anything shared between trials.
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
// independent — each reads and writes only its own State's KV cache and
// scratch and its own rows of the stacked tensors, its own hooks and
// checker observe only its own activation rows, and every computed value
// is bit-identical to the same trial stepping alone through
// State.DecodeStep (the batched GEMM's per-row accumulation order matches
// MatVec, and norms, RoPE, attention, SwiGLU, and MoE routing act on rows
// independently). Nothing a row computes, shows a hook or hands a checker
// therefore depends on which rows share its step, or — the same argument
// — on how Step shards the rows over goroutines: the shards share only
// what a step never writes (weights, RoPE tables, the checkers' checksum
// cache). A Batch must not be shared between goroutines; the goroutines
// Step starts are its own and have exited when it returns.
type Batch struct {
	m   *Model
	cap int

	// Stacked activations, capacity × dim; only the leading len(rows)
	// rows of each are touched by a Step, each by the shard that owns it.
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
// state's position, the linear layers run as stacked GEMMs over the rows,
// and each row's next-token logits land in its Logits buffer with its
// state advanced by one. Rows may sit at different positions. The
// model's registered hooks and checker are ignored; each row's own
// Hooks/Checker observe its rows (see DecodeRow).
//
// The rows are split into min(threads, len(rows)) contiguous ranges (the
// model's SetThreads budget) and each range runs the whole forward pass
// on its own goroutine, the first on the caller's: one fork–join per
// step, not one per GEMM, because a 16-row GEMM is too small to repay a
// fork–join of its own. One thread is the one-range case of the same code.
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
	// Contract violations panic here, on the caller's goroutine, before
	// any shard starts.
	for _, row := range rows {
		if row.St.m != m {
			panic("model: decode row state bound to a different model")
		}
		if row.St.Pos >= cfg.MaxSeq {
			panic(fmt.Sprintf("model: context overflow (max %d)", cfg.MaxSeq))
		}
		if len(row.Logits) != cfg.Vocab {
			panic("model: decode row logits buffer has wrong length")
		}
	}

	shards := min(m.matmulThreads(), n)
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			b.stepRange(rows, r0, r1)
		}(s*n/shards, (s+1)*n/shards)
	}
	b.stepRange(rows, 0, n/shards)
	wg.Wait()
}

// stepRange runs the whole forward pass for rows [r0, r1): it reads and
// writes only those rows of the stacked tensors, those rows' States and
// observers, and (read-only) the model's weights and tables, so ranges
// run concurrently without synchronisation. Its GEMMs run serially — the
// step's thread budget is already spent on the ranges.
func (b *Batch) stepRange(rows []*DecodeRow, r0, r1 int) {
	m := b.m
	cfg := &m.Cfg

	for i := r0; i < r1; i++ {
		tok := rows[i].Tok
		if tok < 0 || tok >= cfg.Vocab {
			tok = 0
		}
		copy(b.x.Row(i), m.Embed.Row(tok))
	}

	// linear runs the range through w and then applies each row's own
	// context to its output row, in row order — the per-trial hook/checker
	// dispatch that keeps every trial's observations identical to its
	// serial run.
	linear := func(ref LayerRef, w Weight, in, out *tensor.Tensor) {
		forwardRows(w, out, in, r0, r1, 1)
		for i := r0; i < r1; i++ {
			row := rows[i]
			m.finishLinearRC(row.rc(), ref, row.St.Pos, w, in.Row(i), out.Row(i))
		}
	}
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

	for bi, blk := range m.Blocks {
		// --- attention sub-block ---
		copy(span(b.h), span(b.x))
		normRows(b.h, blk.AttnNorm)

		linear(LayerRef{bi, KindQ, -1}, blk.Wq, b.h, b.q)
		linear(LayerRef{bi, KindK, -1}, blk.Wk, b.h, b.kb)
		linear(LayerRef{bi, KindV, -1}, blk.Wv, b.h, b.vb)

		for i := r0; i < r1; i++ {
			st := rows[i].St
			pos := st.Pos
			m.applyRoPE(b.q.Row(i), pos)
			m.applyRoPE(b.kb.Row(i), pos)
			copy(st.K[bi].Row(pos), b.kb.Row(i))
			copy(st.V[bi].Row(pos), b.vb.Row(i))
		}
		for i := r0; i < r1; i++ {
			row := rows[i]
			m.attendAt(row.St, bi, row.St.Pos, b.q.Row(i), b.a.Row(i))
			if len(row.AttnHooks) > 0 {
				ref := LayerRef{bi, KindAttnAct, -1}
				for _, h := range row.AttnHooks {
					h(ref, row.St.Pos, b.a.Row(i))
				}
			}
		}

		linear(LayerRef{bi, KindOut, -1}, blk.Wo, b.a, b.h)
		addRows(b.x, b.h)

		// --- MLP / MoE sub-block ---
		copy(span(b.h), span(b.x))
		normRows(b.h, blk.MLPNorm)

		if blk.Router != nil {
			linear(LayerRef{bi, KindRouter, -1}, blk.Router, b.h, b.r)
			for i := r0; i < r1; i++ {
				row := rows[i]
				m.moeMix(row.rc(), row.St, blk, bi, row.St.Pos, b.r.Row(i), b.h.Row(i), b.d.Row(i))
			}
		} else {
			linear(LayerRef{bi, KindGate, -1}, blk.MLP.WGate, b.h, b.ff1)
			linear(LayerRef{bi, KindUp, -1}, blk.MLP.WUp, b.h, b.ff2)
			gate, up, act := span(b.ff1), span(b.ff2), span(b.ffa)
			for j, g := range gate {
				act[j] = float32(float64(g)/(1+math.Exp(-float64(g)))) * up[j]
			}
			linear(LayerRef{bi, KindDown, -1}, blk.MLP.WDown, b.ffa, b.d)
		}
		addRows(b.x, b.d)
	}

	normRows(b.x, m.FinalNorm)
	linear(LayerRef{-1, KindLMHead, -1}, m.LMHead, b.x, b.l)

	for i := r0; i < r1; i++ {
		copy(rows[i].Logits, b.l.Row(i))
		rows[i].St.Pos++
	}
}
