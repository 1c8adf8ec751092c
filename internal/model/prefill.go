package model

import (
	"fmt"

	"repro/internal/tensor"
)

// Prefill processes the whole prompt and returns the logits after the
// final prompt token (the distribution over the first generated token).
//
// Unlike the seed's per-token recurrence, the prompt's positions go
// through forwardStack as the rows of one stacked pass, so each block
// runs its linear layers as one m×k matmul over every position — which
// is where campaign prefill time goes. The result, the KV cache, and
// every vector the model's hooks, attention hooks and checker observe are
// bit-identical to the sequential loop (see forwardStack); only the
// global call order differs, layer-major with positions ascending inside
// each layer.
func (st *State) Prefill(prompt []int) []float32 {
	if len(prompt) == 0 {
		panic("model: empty prompt")
	}
	if st.m.seqPrefill {
		return st.prefillSequential(prompt)
	}
	if len(prompt) == 1 {
		return st.DecodeStep(prompt[0])
	}
	m := st.m
	cfg := &m.Cfg
	n := len(prompt)
	if st.Pos+n > cfg.MaxSeq {
		panic(fmt.Sprintf("model: context overflow (max %d)", cfg.MaxSeq))
	}
	st.reserveNext(n)
	threads := m.matmulThreads()

	rows := make([]stackRow, n)
	for i, tok := range prompt {
		rows[i] = stackRow{st: st, pos: st.Pos + i, tok: tok, rc: m.rc(), attnHooks: m.attnHooks}
	}
	sk := m.newStack(n)
	m.forwardStack(sk, rows, 0, n, threads)

	lmHead := LayerRef{-1, KindLMHead, -1}
	if len(m.hooks) > 0 {
		// Hooks observe (and may mutate) the LM-head output of every
		// position in the sequential path; keep that visible behaviour.
		L := tensor.New(n, cfg.Vocab)
		m.linearRows(rows, lmHead, m.LMHead, sk.x, L, 0, n, threads)
		copy(st.logits, L.Row(n-1))
	} else {
		// Without hooks the intermediate logits are unobservable and
		// immediately overwritten — compute only the final row.
		m.LMHead.Forward(st.logits, sk.x.Row(n-1))
		m.finishLinear(lmHead, rows[n-1].pos, m.LMHead, sk.x.Row(n-1), st.logits)
	}

	st.Pos += n
	return st.logits
}
