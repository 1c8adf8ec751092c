package model

import "testing"

// TestAttnHookSerialBatchParity pins the attention-activation hook slot
// across both decode paths: a mutating hook in a state's AttnHooks on a
// serial DecodeStep run must produce bit-identical logits to the same
// hook on a batch row's state — and the
// sibling batch row, running hook-free, must stay bit-identical to a
// clean serial run.
func TestAttnHookSerialBatchParity(t *testing.T) {
	spec := testSpec(QwenS)
	m := MustBuild(spec)
	vocab := spec.Config.Vocab
	prompts := [][]int{promptOf(4, vocab), promptOf(6, vocab)}
	toks := []int{3, 21, 8}

	// The fault: scale one neuron of block 1's concatenated head outputs
	// at one position.
	target := len(prompts[0]) + 1
	mutate := func(ref LayerRef, pos int, out []float32) {
		if ref.Block == 1 && pos == target {
			out[2] *= 4
		}
	}

	runSerial := func(prompt []int, hook Hook) [][]float32 {
		st := m.NewState()
		st.Prefill(prompt)
		if hook != nil {
			st.AttnHooks = []Hook{hook}
		}
		return serialDecode(st, toks)
	}
	wantFaulty := runSerial(prompts[0], mutate)
	wantClean := runSerial(prompts[1], nil)

	// Capture hook on the faulty row: must observe only that row's
	// positions, and see KindAttnAct refs.
	var seen []hookKey
	capture := func(ref LayerRef, pos int, out []float32) {
		seen = append(seen, hookKey{ref, pos})
	}

	sts := make([]*State, len(prompts))
	rows := make([]*DecodeRow, len(prompts))
	for i, p := range prompts {
		sts[i] = m.NewState()
		sts[i].Prefill(p)
		rows[i] = &DecodeRow{St: sts[i], Logits: make([]float32, vocab)}
	}
	rows[0].St.AttnHooks = []Hook{mutate, capture}

	b := m.NewBatch(len(rows))
	for step := range toks {
		for _, row := range rows {
			row.Tok = toks[step]
		}
		b.Step(rows)
		for j, v := range rows[0].Logits {
			if v != wantFaulty[step][j] {
				t.Fatalf("faulty row step %d logit %d: batch %g serial %g", step, j, v, wantFaulty[step][j])
			}
		}
		for j, v := range rows[1].Logits {
			if v != wantClean[step][j] {
				t.Fatalf("clean row step %d logit %d: batch %g serial %g", step, j, v, wantClean[step][j])
			}
		}
	}

	wantCalls := len(toks) * spec.Config.NBlocks
	if len(seen) != wantCalls {
		t.Fatalf("capture hook saw %d calls, want %d", len(seen), wantCalls)
	}
	for _, k := range seen {
		if k.ref.Kind != KindAttnAct {
			t.Fatalf("attn hook fired with kind %v", k.ref.Kind)
		}
		if k.pos < len(prompts[0]) || k.pos >= len(prompts[0])+len(toks) {
			t.Fatalf("attn hook saw sibling position %d", k.pos)
		}
	}
}

// TestAttnHookIgnoredByBatch pins that an attention hook fires only for
// the rows whose state carries it: a Batch.Step over other states of the
// same model never calls a hook armed on a state outside the batch —
// batched trials scope injection per row, so a hook leaking there would
// corrupt every row.
func TestAttnHookIgnoredByBatch(t *testing.T) {
	spec := testSpec(QwenS)
	m := MustBuild(spec)
	vocab := spec.Config.Vocab
	fired := 0
	armed := m.NewState()
	armed.AttnHooks = []Hook{func(ref LayerRef, pos int, out []float32) { fired++ }}
	armed.Prefill(promptOf(4, vocab))
	if fired == 0 {
		t.Fatal("the armed state's own prefill did not fire its attn hook")
	}

	st := m.NewState()
	st.Prefill(promptOf(4, vocab))
	fired = 0
	row := &DecodeRow{St: st, Tok: 3, Logits: make([]float32, vocab)}
	m.NewBatch(1).Step([]*DecodeRow{row})
	if fired != 0 {
		t.Fatalf("another state's attn hook fired %d times during Batch.Step", fired)
	}
}
