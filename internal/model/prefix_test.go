package model

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// decodedState prefills prompt and decodes toks on a fresh state of m.
func decodedState(m *Model, prompt, toks []int) (*State, []float32) {
	st := m.NewState()
	if m.Cfg.IsMoE() {
		st.EnableExpertTrace()
	}
	logits := st.Prefill(prompt)
	for _, tok := range toks {
		logits = st.DecodeStep(tok)
	}
	return st, append([]float32(nil), logits...)
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %g, want %g", what, i, got[i], want[i])
		}
	}
}

// TestPrefixForkMatchesForkAt pins the by-reference fork to the copying
// one: at every position of a state that has decoded on, Prefix.ForkInto
// and ForkAtInto hold the same KV rows and expert trace, and stay equal —
// logits, rows, trace — through a decode that runs to the end, on a fresh
// dst, and on a recycled one that was the other kind of fork before (a
// by-reference fork becoming a copying one and the reverse).
func TestPrefixForkMatchesForkAt(t *testing.T) {
	for name, spec := range map[string]Spec{"dense": testSpec(QwenS), "moe": moeSpec()} {
		t.Run(name, func(t *testing.T) {
			m := MustBuild(spec)
			prompt := promptOf(7, spec.Config.Vocab)
			toks := []int{5, 9, 2, 7, 3, 11}
			full, _ := decodedState(m, prompt, toks)
			snap := full.Snapshot()
			if snap.Pos() != full.Pos || snap.Bytes() != 2*m.Cfg.NBlocks*full.Pos*m.Cfg.DModel*4 {
				t.Fatalf("snapshot of a state at %d: Pos %d, %d bytes", full.Pos, snap.Pos(), snap.Bytes())
			}
			clone := m.CloneShared()
			var wasRef, wasCopy *State // recycled: each becomes the other kind
			for pos := 0; pos <= full.Pos; pos++ {
				for _, recycle := range []bool{false, true} {
					var dstCopy, dstRef *State
					if recycle {
						dstCopy, dstRef = wasRef, wasCopy
					}
					want := full.ForkAtInto(clone, dstCopy, pos)
					got := snap.ForkInto(clone, dstRef, pos)
					if err := statesEqual(want, got); err != nil {
						t.Fatalf("fork at %d (recycled %v): %v", pos, recycle, err)
					}
					for i := 0; want.Pos < m.Cfg.MaxSeq && i < 5; i++ {
						tok := (3*pos + 5*i + 1) % m.Cfg.Vocab
						sameBits(t, "continued logits", got.DecodeStep(tok), want.DecodeStep(tok))
					}
					if err := statesEqual(want, got); err != nil {
						t.Fatalf("fork at %d (recycled %v), decoded on: %v", pos, recycle, err)
					}
					wasCopy, wasRef = want, got
				}
			}
			for _, pos := range []int{-1, snap.Pos() + 1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("fork at %d of a prefix of %d must panic", pos, snap.Pos())
						}
					}()
					snap.ForkInto(clone, nil, pos)
				}()
			}
		})
	}
}

// TestPrefixForkThenPrefill: a prompt prefilled from any point q of a
// prefix that holds its first q tokens — the rest through the stacked
// pass, or the single last token through DecodeStep — is the prompt
// prefilled whole: logits, KV rows, expert trace.
func TestPrefixForkThenPrefill(t *testing.T) {
	for name, spec := range map[string]Spec{"dense": testSpec(QwenS), "moe": moeSpec()} {
		t.Run(name, func(t *testing.T) {
			m := MustBuild(spec)
			prompt := promptOf(15, spec.Config.Vocab)
			want, wantLogits := decodedState(m, prompt, nil)
			// The prefix ran past the prompt and on a different tail: only
			// its first q rows may matter.
			other, _ := decodedState(m, append(append([]int(nil), prompt...), 4, 8), []int{6, 1})
			snap := other.Snapshot()
			for q := 0; q < len(prompt); q++ {
				st := snap.ForkInto(m, nil, q)
				sameBits(t, "prefill logits", st.Prefill(prompt[q:]), wantLogits)
				if err := statesEqual(want, st); err != nil {
					t.Fatalf("fork at %d + prefill of the rest: %v", q, err)
				}
			}
		})
	}
}

// TestPrefixConcurrentForks has eight goroutines fork one Prefix at
// different positions and decode at once — one on a Batch, one taking a
// KV-cache strike on a row it shares — and requires every decode to match
// its copying-fork reference, the strike to be visible in the struck fork
// only, and the Prefix to hold its exact bytes afterwards. Run under
// -race: the forks read the prefix's rows with no synchronisation beyond
// their own start.
func TestPrefixConcurrentForks(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	prompt := promptOf(9, m.Cfg.Vocab)
	full, _ := decodedState(m, prompt, []int{5, 9, 2, 7})
	snap := full.Snapshot()
	before := [2][][]float32{}
	for pl := range snap.kv {
		for _, rows := range snap.kv[pl] {
			before[pl] = append(before[pl], append([]float32(nil), rows...))
		}
	}
	struck := LayerRef{1, KindV, -1}
	const strikeRow, strikeCol, forks, steps = 2, 3, 8, 6

	// decode runs the fork's steps; strike lands after the first.
	decode := func(st *State, strike bool, step func(tok int) []float32) [][]float32 {
		var out [][]float32
		for i := 0; i < steps; i++ {
			if strike && i == 1 {
				v, _ := st.KVAt(struck, strikeRow, strikeCol)
				st.SetKV(struck, strikeRow, strikeCol, -4*v-1)
			}
			out = append(out, append([]float32(nil), step((7*i+st.Pos)%m.Cfg.Vocab)...))
		}
		return out
	}
	posOf := func(g int) int { return 3 + g } // every fork shares row strikeRow
	want := make([][][]float32, forks)
	for g := range want {
		ref := full.ForkAtInto(m, nil, posOf(g))
		want[g] = decode(ref, g == 0, ref.DecodeStep)
	}

	got := make([][][]float32, forks)
	states := make([]*State, forks)
	var wg sync.WaitGroup
	for g := 0; g < forks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wm := m.CloneShared()
			st := snap.ForkInto(wm, nil, posOf(g))
			states[g] = st
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
			got[g] = decode(st, g == 0, step)
		}(g)
	}
	wg.Wait()

	for g := range got {
		for i := range want[g] {
			sameBits(t, "concurrent fork's logits", got[g][i], want[g][i])
		}
		v, _ := states[g].KVAt(struck, strikeRow, strikeCol)
		clean := before[planeV][struck.Block][strikeRow*m.Cfg.DModel+strikeCol]
		if (v != clean) != (g == 0) {
			t.Fatalf("fork %d reads %g at the struck element, the prefix holds %g", g, v, clean)
		}
	}
	if states[0].base != nil || states[1].base != snap {
		t.Fatal("the struck fork must have left the prefix, and only it")
	}
	for pl := range snap.kv {
		if !reflect.DeepEqual(snap.kv[pl], before[pl]) {
			t.Fatal("a fork wrote the shared prefix")
		}
	}
}
