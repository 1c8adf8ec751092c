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

// depthPrefix runs prompt and decodes toks on a state of m recording
// from position lo and snapshots it: a baseline's finished state with its
// depth planes.
func depthPrefix(m *Model, lo int, prompt, toks []int) *Prefix {
	st := m.NewState()
	st.RecordDepth(lo)
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
					snap := depthPrefix(m, 0, prompt, toks)
					if !snap.HasDepth(0) || snap.Pos() != promptLen+steps {
						t.Fatalf("prefix at %d, depth planes %v", snap.Pos(), snap.HasDepth(0))
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

							got := snap.ForkDepth(struck, recycled, 0, from)
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

// TestDepthForkConcurrent has twelve goroutines depth-fork one Prefix and
// decode at once — eight at position 0 and every sublayer, four in time
// as well, at decode positions; half diverging from its tokens part way,
// two on a Batch, one taking a KV-cache strike on a row it shares — and
// requires each to match its own sequential reference and the Prefix to
// hold its exact bytes afterwards. Run under -race: the forks read the
// prefix's rows, planes and trace with no synchronisation beyond their
// own start.
func TestDepthForkConcurrent(t *testing.T) {
	m := MustBuild(depthSpec(true))
	prompt := promptOf(9, m.Cfg.Vocab)
	toks := []int{5, 9, 2, 7}
	snap := depthPrefix(m, 0, prompt, toks)
	before := *snap
	before.kv, before.depth = [2][][]float32{}, &planes{lo: snap.depth.lo, toks: slices.Clone(snap.depth.toks)}
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

	const forks = 12
	struck := LayerRef{0, KindV, -1}
	all := append(append(slices.Clone(prompt), toks...), 1, 6)
	atOf := func(g int) int {
		if g < 8 {
			return 0
		}
		return len(prompt) + g - 8
	}
	// run feeds st, at position 0 or a decode position, the tokens of all
	// from there — an odd fork's changed after the first it is fed past
	// the prompt — and returns the logits after each position it ran.
	run := func(g int, st *State, step func(tok int) []float32) map[int][]float32 {
		out := map[int][]float32{}
		if st.Pos == 0 {
			out[len(prompt)-1] = slices.Clone(st.Prefill(prompt))
		}
		for pos := st.Pos; pos < len(all); pos++ {
			tok := all[pos]
			if g%2 == 1 && pos == max(len(prompt), atOf(g))+1 {
				tok = (tok + g) % m.Cfg.Vocab
			}
			if g == 0 && pos == len(prompt)+1 {
				// Block 0's attention lies below sublayer 1: the struck row is
				// one the fork reads from the prefix.
				v, _ := st.KVAt(struck, 3, 4)
				st.SetKV(struck, 3, 4, -4*v-1)
			}
			out[pos] = slices.Clone(step(tok))
		}
		return out
	}
	fromOf := func(g int) int { return 1 + g%(2*m.Cfg.NBlocks-1) }
	want := make([]map[int][]float32, forks)
	for g := range want {
		st := m.NewState()
		st.EnableExpertTrace()
		want[g] = run(g, st, st.DecodeStep)
	}

	got := make([]map[int][]float32, forks)
	var wg sync.WaitGroup
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wm := m.CloneShared()
			st := snap.ForkDepth(wm, nil, atOf(g), fromOf(g))
			step := st.DecodeStep
			if g%8 == 1 {
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
		if len(got[g]) == 0 {
			t.Fatalf("fork %d ran nothing", g)
		}
		for pos, logits := range got[g] {
			sameBits(t, fmt.Sprintf("fork %d (at %d, from %d) logits after %d", g, atOf(g), fromOf(g), pos), logits, want[g][pos])
		}
	}
	if !reflect.DeepEqual(snap, &before) {
		t.Fatal("a depth fork wrote the shared prefix")
	}
}

// TestDepthForkAtMatchesFullState is the fork in time and depth's
// contract. A prefix records a clean generation from the prompt's end; on
// a model struck in sublayer from, a fork at every decode position p and
// sublayer from, fed the tokens from p on, must equal the fork in time
// alone (ForkInto at p) fed the same ones — every logits vector, the KV
// rows through KVAt, the expert trace — for every from, with the fed
// tokens leaving the prefix's at p, two positions later, or never, and
// fed one token per step or the first two as one stacked pass; dense and
// MoE. DepthMatched counts exactly the positions from p before the first
// difference, or the prefix's end.
func TestDepthForkAtMatchesFullState(t *testing.T) {
	const promptLen, steps = 7, 5
	for _, moe := range []bool{false, true} {
		t.Run(fmt.Sprintf("moe=%v", moe), func(t *testing.T) {
			spec := depthSpec(moe)
			m := MustBuild(spec)
			vocab := spec.Config.Vocab
			prompt := promptOf(promptLen, vocab)
			toks := make([]int, steps)
			for i := range toks {
				toks[i] = (3*i + 4) % vocab
			}
			snap := depthPrefix(m, promptLen, prompt, toks)
			end := snap.Pos()
			var recycled *State
			for from := 0; from < 2*m.Cfg.NBlocks; from++ {
				struck := strikeAt(t, m, from)
				for p := promptLen; p < end; p++ {
					for _, diverge := range []int{p, p + 2, end} {
						for _, stacked := range []bool{false, true} {
							d := append(slices.Clone(toks[p-promptLen:]), 3, 4)
							if diverge < end {
								d[diverge-p] = (d[diverge-p] + 1) % vocab
							}
							feedFrom := func(st *State) [][]float32 {
								var out [][]float32
								rest := d
								if stacked {
									out = append(out, slices.Clone(st.Prefill(d[:2])))
									rest = d[2:]
								}
								for _, tok := range rest {
									out = append(out, slices.Clone(st.DecodeStep(tok)))
								}
								return out
							}
							want := snap.ForkInto(struck, nil, p)
							wantLogits := feedFrom(want)
							got := snap.ForkDepth(struck, recycled, p, from)
							recycled = got
							gotLogits := feedFrom(got)

							name := fmt.Sprintf("fork at %d, from %d, diverging at %d (stacked %v)", p, from, diverge, stacked)
							for i := range wantLogits {
								sameBits(t, fmt.Sprintf("%s: logits %d", name, i), gotLogits[i], wantLogits[i])
							}
							if err := statesEqual(want, got); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							matched := min(diverge, end) - p
							if from == 0 {
								matched = 0
							}
							if got.DepthMatched() != matched {
								t.Fatalf("%s: %d positions matched, want %d", name, got.DepthMatched(), matched)
							}
						}
					}
				}
			}
		})
	}
}

// TestDepthForkPlanesFrom: a state recording from position lo keeps, and
// its snapshot copies and counts, only the rows from lo on — the same
// bits a state recording from 0 keeps there. Its planes cover positions
// lo and up: a fork in depth below lo panics, one in time alone does not.
func TestDepthForkPlanesFrom(t *testing.T) {
	m := MustBuild(depthSpec(true))
	d := m.Cfg.DModel
	prompt := promptOf(6, m.Cfg.Vocab)
	toks := []int{5, 9, 2, 7}
	full := depthPrefix(m, 0, prompt, toks)
	lo := len(prompt)
	part := depthPrefix(m, lo, prompt, toks)
	n := part.Pos() - lo

	if part.depth.lo != lo || len(part.depth.toks) != n {
		t.Fatalf("planes from %d holding %d positions, want %d from %d", part.depth.lo, len(part.depth.toks), n, lo)
	}
	for s := 1; s < 2*m.Cfg.NBlocks; s++ {
		if len(part.depth.res[s-1]) != n*d {
			t.Fatalf("sublayer %d plane holds %d values, want %d", s, len(part.depth.res[s-1]), n*d)
		}
		for pos := lo; pos < part.Pos(); pos++ {
			sameBits(t, fmt.Sprintf("sublayer %d at %d", s, pos), part.depth.at(s, pos, d), full.depth.at(s, pos, d))
			if part.depth.tok(pos) != full.depth.tok(pos) {
				t.Fatalf("token at %d: %d, want %d", pos, part.depth.tok(pos), full.depth.tok(pos))
			}
		}
	}
	perPos := (2*m.Cfg.NBlocks-1)*d*4 + 8
	if got, want := full.Bytes()-part.Bytes(), lo*perPos; got != want {
		t.Fatalf("planes from %d are %d bytes smaller than from 0, want %d", lo, got, want)
	}
	st, _ := decodedState(m, prompt, toks)
	noPlanes := st.Snapshot()
	if got, want := full.Bytes()-noPlanes.Bytes(), full.Pos()*perPos; got != want {
		t.Fatalf("planes from 0 are %d bytes, want %d", got, want)
	}

	for pos := 0; pos <= part.Pos(); pos++ {
		if part.HasDepth(pos) != (pos >= lo) || !full.HasDepth(pos) || noPlanes.HasDepth(pos) {
			t.Fatalf("position %d: covered from %d %v, from 0 %v, without planes %v",
				pos, lo, part.HasDepth(pos), full.HasDepth(pos), noPlanes.HasDepth(pos))
		}
	}
	part.ForkDepth(m, nil, lo-1, 0)
	part.ForkDepth(m, nil, lo, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a fork in depth below the planes' first position did not panic")
		}
	}()
	part.ForkDepth(m, nil, lo-1, 1)
}

// TestRecordDepthOnPrefixFork: a state forked from a prefix (ForkInto)
// records depth planes from its fork position or any later one, and the
// snapshot of its run — planes, tokens, K/V rows, expert trace — is bit
// for bit a fresh state's recording the same run from the same position.
// Recording from below the fork position, or on a depth fork, panics.
func TestRecordDepthOnPrefixFork(t *testing.T) {
	const half = 4
	for _, moe := range []bool{false, true} {
		m := MustBuild(depthSpec(moe))
		d := m.Cfg.DModel
		prompt := promptOf(9, m.Cfg.Vocab)
		toks := []int{5, 9, 2, 7}
		px := depthPrefix(m, 0, prompt[:half], nil)
		for _, at := range []int{0, 2, half} {
			for _, lo := range []int{at, len(prompt), len(prompt) + 2} {
				name := fmt.Sprintf("moe=%v fork at %d, planes from %d", moe, at, lo)
				want := depthPrefix(m, lo, prompt, toks)
				st := px.ForkInto(m, nil, at)
				st.RecordDepth(lo)
				st.Prefill(prompt[at:])
				for _, tok := range toks {
					st.DecodeStep(tok)
				}
				got := st.Snapshot()
				if got.depth.lo != lo || !reflect.DeepEqual(got.depth.toks, want.depth.toks) {
					t.Fatalf("%s: planes from %d fed %v, want %v", name, got.depth.lo, got.depth.toks, want.depth.toks)
				}
				for s := 1; s < 2*m.Cfg.NBlocks; s++ {
					for pos := lo; pos < got.Pos(); pos++ {
						sameBits(t, fmt.Sprintf("%s: sublayer %d at %d", name, s, pos), got.depth.at(s, pos, d), want.depth.at(s, pos, d))
					}
				}
				if !reflect.DeepEqual(got, want) || got.Bytes() != want.Bytes() {
					t.Fatalf("%s: the snapshot differs from a fresh state's", name)
				}
			}
		}
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("moe=%v: %s did not panic", moe, what)
				}
			}()
			f()
		}
		mustPanic("recording below the fork position", func() { px.ForkInto(m, nil, half).RecordDepth(half - 1) })
		mustPanic("recording on a depth fork", func() { px.ForkDepth(m, nil, 1, 1).RecordDepth(half) })
	}
}
