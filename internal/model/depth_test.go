package model

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// depthSpec is testSpec (dense or MoE) with a third block, so a fork can
// skip whole blocks below a block it computes and above one it skips.
func depthSpec(moe bool) Spec {
	spec := testSpec(QwenS)
	if moe {
		spec = moeSpec()
	}
	spec.Config.NBlocks = 3
	return spec
}

// depthPrefix runs prompt and decodes toks on a recording state of m and
// snapshots it: a baseline's finished state with its depth planes.
func depthPrefix(m *Model, prompt, toks []int) *Prefix {
	st := m.NewState()
	st.RecordDepth()
	if m.Cfg.IsMoE() {
		st.EnableExpertTrace()
	}
	st.Prefill(prompt)
	for _, tok := range toks {
		st.DecodeStep(tok)
	}
	return st.Snapshot()
}

// strikeAt returns a weight-sharing clone of m with two bits of one
// weight of sublayer s flipped: its first linear layer, the one a memory
// fault resuming there would strike.
func strikeAt(t *testing.T, m *Model, s int) *Model {
	t.Helper()
	ref := LayerRef{s / 2, KindQ, -1}
	if s%2 == 1 {
		ref.Kind = KindGate
		if m.Cfg.IsMoE() {
			ref.Kind = KindRouter
		}
	}
	clone := m.CloneShared()
	w, err := clone.LayerForWrite(ref)
	if err != nil {
		t.Fatal(err)
	}
	w.(*Dense).FlipBits(1, 2, []int{13, 14})
	return clone
}

// feed prefills prompt on st and decodes toks, returning every logits
// vector it produced.
func feed(st *State, prompt, toks []int) [][]float32 {
	out := [][]float32{slices.Clone(st.Prefill(prompt))}
	for _, tok := range toks {
		out = append(out, slices.Clone(st.DecodeStep(tok)))
	}
	return out
}

// TestDepthForkMatchesFullState is the depth fork's contract. A prefix
// records a clean inference; on a model struck in sublayer from, a fork
// at from fed a prompt and decode tokens must equal a fresh state fed the
// same ones — every logits vector, the KV rows through KVAt, the expert
// trace — for every from, with the fed tokens leaving the prefix's at no
// point, at each prompt position, at each decode step, and past the
// prefix's end; dense and MoE, one-token and longer prompts, stacked and
// sequential prefill. DepthMatched counts exactly the positions before the
// first difference.
func TestDepthForkMatchesFullState(t *testing.T) {
	const steps = 5
	for _, moe := range []bool{false, true} {
		for _, promptLen := range []int{1, 7} {
			for _, seq := range []bool{false, true} {
				t.Run(fmt.Sprintf("moe=%v/prompt=%d/sequential=%v", moe, promptLen, seq), func(t *testing.T) {
					spec := depthSpec(moe)
					m := MustBuild(spec)
					vocab := spec.Config.Vocab
					prompt := promptOf(promptLen, vocab)
					toks := make([]int, steps)
					for i := range toks {
						toks[i] = (5*i + 2) % vocab
					}
					snap := depthPrefix(m, prompt, toks)
					if !snap.HasDepth() || snap.Pos() != promptLen+steps {
						t.Fatalf("prefix at %d, depth planes %v", snap.Pos(), snap.HasDepth())
					}
					var recycled *State
					for from := 0; from < 2*m.Cfg.NBlocks; from++ {
						struck := strikeAt(t, m, from)
						struck.SetSequentialPrefill(seq)
						// diverge is the first fed position whose token is not
						// the prefix's: past its end means none does.
						for diverge := 0; diverge <= promptLen+steps; diverge++ {
							p, d := slices.Clone(prompt), append(slices.Clone(toks), 3, 4)
							switch {
							case diverge < promptLen:
								p[diverge] = (p[diverge] + 1) % vocab
							case diverge < promptLen+steps:
								d[diverge-promptLen] = (d[diverge-promptLen] + 1) % vocab
							}
							want := struck.NewState()
							if moe {
								want.EnableExpertTrace()
							}
							wantLogits := feed(want, p, d)

							got := snap.ForkDepth(struck, recycled, from)
							recycled = got
							gotLogits := feed(got, p, d)
							name := fmt.Sprintf("from %d, diverging at %d", from, diverge)
							for i := range wantLogits {
								sameBits(t, fmt.Sprintf("%s: logits %d", name, i), gotLogits[i], wantLogits[i])
							}
							if err := statesEqual(want, got); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							matched := diverge
							if from == 0 {
								matched = 0
							}
							if got.DepthMatched() != matched {
								t.Fatalf("%s: %d positions matched, want %d", name, got.DepthMatched(), matched)
							}
						}
					}
				})
			}
		}
	}
}

// TestDepthForkConcurrent has eight goroutines depth-fork one Prefix at
// every sublayer and decode at once — half diverging from its tokens part
// way, one on a Batch, one taking a KV-cache strike on a row it shares —
// and requires each to match its own sequential reference and the Prefix
// to hold its exact bytes afterwards. Run under -race: the forks read the
// prefix's rows, planes and trace with no synchronisation beyond their
// own start.
func TestDepthForkConcurrent(t *testing.T) {
	m := MustBuild(depthSpec(true))
	prompt := promptOf(9, m.Cfg.Vocab)
	toks := []int{5, 9, 2, 7}
	snap := depthPrefix(m, prompt, toks)
	before := *snap
	before.kv, before.depth = [2][][]float32{}, &planes{toks: slices.Clone(snap.depth.toks)}
	for pl := range snap.kv {
		for _, rows := range snap.kv[pl] {
			before.kv[pl] = append(before.kv[pl], slices.Clone(rows))
		}
	}
	for _, res := range snap.depth.res {
		before.depth.res = append(before.depth.res, slices.Clone(res))
	}
	before.trace = nil
	for _, tr := range snap.trace {
		before.trace = append(before.trace, slices.Clone(tr))
	}

	const forks = 8
	struck := LayerRef{0, KindV, -1}
	run := func(g int, st *State, step func(tok int) []float32) [][]float32 {
		out := [][]float32{slices.Clone(st.Prefill(prompt))}
		for i, tok := range append(slices.Clone(toks), 1, 6) {
			if g%2 == 1 && i == 2 {
				tok = (tok + g) % m.Cfg.Vocab
			}
			if g == 0 && i == 1 {
				// Block 0's attention lies below sublayer 1: the struck row is
				// one the fork reads from the prefix.
				v, _ := st.KVAt(struck, 3, 4)
				st.SetKV(struck, 3, 4, -4*v-1)
			}
			out = append(out, slices.Clone(step(tok)))
		}
		return out
	}
	fromOf := func(g int) int { return 1 + g%(2*m.Cfg.NBlocks-1) }
	want := make([][][]float32, forks)
	for g := range want {
		st := m.NewState()
		st.EnableExpertTrace()
		want[g] = run(g, st, st.DecodeStep)
	}

	got := make([][][]float32, forks)
	var wg sync.WaitGroup
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wm := m.CloneShared()
			st := snap.ForkDepth(wm, nil, fromOf(g))
			step := st.DecodeStep
			if g == 1 {
				bt := wm.NewBatch(1)
				row := &DecodeRow{St: st, Logits: make([]float32, m.Cfg.Vocab)}
				step = func(tok int) []float32 {
					row.Tok = tok
					bt.Step([]*DecodeRow{row})
					return row.Logits
				}
			}
			got[g] = run(g, st, step)
		}(g)
	}
	wg.Wait()

	for g := range got {
		for i := range want[g] {
			sameBits(t, fmt.Sprintf("fork %d (from %d) logits %d", g, fromOf(g), i), got[g][i], want[g][i])
		}
	}
	if !reflect.DeepEqual(snap, &before) {
		t.Fatal("a depth fork wrote the shared prefix")
	}
}
