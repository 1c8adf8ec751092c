package model

import (
	"fmt"

	"repro/internal/tensor"
)

// Prefill processes the whole prompt under the state's Observers and
// returns the logits after the final prompt token (the distribution over
// the first generated token).
//
// Unlike the seed's per-token recurrence, the prompt's positions go
// through forwardStack as the rows of one stacked pass. A prompt of at
// least 2·minShardRows positions whose observers carry no hooks runs in
// contiguous shards of its positions over the model's thread budget, each
// shard taking its rows through the whole pass. The result, the KV
// cache, and every vector the observers see are bit-identical to the
// sequential loop (see forwardStack); only the global call order differs,
// layer-major with positions ascending inside each layer (inside each
// shard, when the pass shards). A depth fork's prompt splits at the first
// token that differs from its prefix's: the positions before it start at
// the fork's sublayer, the rest at the embedding (forwardStack).
//
// The pass computes only what is read. Intermediate logits are
// unobservable without a hook, so the LM head runs on the last position
// only; and where the state carries no hook, attention hook, checker or
// expert trace, and its depth planes do not record the position, a
// position before the last stops at the last block's K/V write — only
// its K/V rows are read again (live). A Strike does not keep rows live:
// it changes what the rows read, not who reads them.
// TestPrefillComputesOnlyReadRows pins both halves: bit-identical results
// without observers, and every row run under each of them.
//
// SetSequentialPrefill routes it through the seed's per-token order, one
// DecodeStep per position, which golden tests pin the stacked pass to and
// before/after benchmarks time.
func (st *State) Prefill(prompt []int) []float32 {
	if len(prompt) == 0 {
		panic("model: empty prompt")
	}
	m := st.m
	if m.seqPrefill || len(prompt) == 1 {
		var logits []float32
		for _, t := range prompt {
			logits = st.DecodeStep(t)
		}
		return logits
	}
	cfg := &m.Cfg
	n := len(prompt)
	if st.Pos+n > cfg.MaxSeq {
		panic(fmt.Sprintf("model: context overflow (max %d)", cfg.MaxSeq))
	}
	st.reserveNext(n)

	sk := m.prefillStack()
	rows := sk.rows[:n]
	for i, tok := range prompt {
		rows[i] = st.row(st.Pos+i, tok)
	}
	m.forwardStack(sk, rows, 0, n, st.live(n))

	lmHead := LayerRef{-1, KindLMHead, -1}
	if len(st.Hooks) > 0 {
		// Hooks observe (and may mutate) the LM-head output of every
		// position in the sequential path; keep that visible behaviour.
		L := tensor.New(n, cfg.Vocab)
		m.linearRows(sk, rows, lmHead, m.LMHead, sk.x, L, 0, n)
		copy(st.logits, L.Row(n-1))
	} else {
		// Without hooks the intermediate logits are unobservable and
		// immediately overwritten — compute only the final row.
		m.linearRow(&st.Observers, lmHead, sk.pos[n-1:n], m.LMHead, sk.x.Row(n-1), st.logits)
	}
	m.putPrefillStack(sk, n)

	st.Pos += n
	return st.logits
}

// live is the first of the n rows of a prefill from st.Pos that anything
// reads past the last block's K/V write: the last, whose logits Prefill
// returns, unless an observer watches every row — a hook (the LM head's
// too), an attention hook, a checker, an expert trace — or the state's
// depth planes record the row's residuals, from their first position on.
func (st *State) live(n int) int {
	if len(st.Hooks) > 0 || len(st.AttnHooks) > 0 || st.Checker != nil || st.ExpertTrace != nil {
		return 0
	}
	if st.rec != nil {
		return min(n-1, max(st.rec.lo-st.Pos, 0))
	}
	return n - 1
}
