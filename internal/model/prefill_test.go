package model

import (
	"fmt"
	"math"
	"testing"
)

func moeTestSpec(fam Family) Spec {
	s := testSpec(fam)
	s.Config.Name = "t-moe"
	s.Config.NumExperts = 4
	s.Config.TopK = 2
	return s
}

// hookKey identifies one finishLinear call site.
type hookKey struct {
	ref LayerRef
	pos int
}

// captureHook records a copy of every hooked vector by (layer, position).
// Batched prefill reorders calls layer-major, so equality is checked per
// call site rather than by global sequence.
func captureHook(dst map[hookKey][]float32) Hook {
	return func(ref LayerRef, pos int, out []float32) {
		dst[hookKey{ref, pos}] = append([]float32(nil), out...)
	}
}

func promptOf(n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (i*7 + 3) % vocab
	}
	return p
}

// runPrefill executes one prefill (sequential or batched) and returns the
// logits, final state, and per-site hook captures.
func runPrefill(t *testing.T, spec Spec, prompt []int, sequential, hooked, trace bool) ([]float32, *State, map[hookKey][]float32) {
	t.Helper()
	m := MustBuild(spec)
	m.SetSequentialPrefill(sequential)
	caps := map[hookKey][]float32{}
	if hooked {
		m.AddHook(captureHook(caps))
	}
	st := m.NewState()
	if trace {
		st.EnableExpertTrace()
	}
	logits := append([]float32(nil), st.Prefill(prompt)...)
	return logits, st, caps
}

func statesEqual(a, b *State) error {
	if a.Pos != b.Pos {
		return fmt.Errorf("Pos %d vs %d", a.Pos, b.Pos)
	}
	// Through the read accessor: the two states may hold the same rows in
	// different pieces (shared prefix + own rows, or all their own).
	for bi := 0; bi < a.m.Cfg.NBlocks; bi++ {
		for _, kind := range []LayerKind{KindK, KindV} {
			ref := LayerRef{bi, kind, -1}
			for pos := 0; pos < a.Pos; pos++ {
				for col := 0; col < a.m.Cfg.DModel; col++ {
					av, _ := a.KVAt(ref, pos, col)
					bv, _ := b.KVAt(ref, pos, col)
					if math.Float32bits(av) != math.Float32bits(bv) {
						return fmt.Errorf("%v cache (%d, %d): %g vs %g", ref, pos, col, av, bv)
					}
				}
			}
		}
	}
	if len(a.ExpertTrace) != len(b.ExpertTrace) {
		return fmt.Errorf("trace blocks %d vs %d", len(a.ExpertTrace), len(b.ExpertTrace))
	}
	for i := range a.ExpertTrace {
		if len(a.ExpertTrace[i]) != len(b.ExpertTrace[i]) {
			return fmt.Errorf("trace[%d] len %d vs %d", i, len(a.ExpertTrace[i]), len(b.ExpertTrace[i]))
		}
		for j := range a.ExpertTrace[i] {
			if a.ExpertTrace[i][j] != b.ExpertTrace[i][j] {
				return fmt.Errorf("trace[%d][%d] %d vs %d", i, j, a.ExpertTrace[i][j], b.ExpertTrace[i][j])
			}
		}
	}
	return nil
}

// TestBatchedPrefillGolden pins the batched prefill bit-for-bit to the
// seed's per-token loop: logits, KV cache, expert traces, and every
// hooked (layer, position) vector must be identical, for dense and MoE
// profiles, with and without hooks installed (the two LM-head branches).
func TestBatchedPrefillGolden(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"dense-qwens", testSpec(QwenS)},
		{"dense-falcons", testSpec(FalconS)},
		{"moe-qwens", moeTestSpec(QwenS)},
	}
	for _, tc := range cases {
		for _, hooked := range []bool{false, true} {
			name := tc.name
			if hooked {
				name += "-hooked"
			}
			t.Run(name, func(t *testing.T) {
				trace := tc.spec.Config.IsMoE()
				prompt := promptOf(17, tc.spec.Config.Vocab)
				wantLogits, wantSt, wantCaps := runPrefill(t, tc.spec, prompt, true, hooked, trace)
				gotLogits, gotSt, gotCaps := runPrefill(t, tc.spec, prompt, false, hooked, trace)
				for i := range wantLogits {
					if wantLogits[i] != gotLogits[i] {
						t.Fatalf("logit %d: %g vs %g", i, wantLogits[i], gotLogits[i])
					}
				}
				if err := statesEqual(wantSt, gotSt); err != nil {
					t.Fatal(err)
				}
				if len(wantCaps) != len(gotCaps) {
					t.Fatalf("hook call sites %d vs %d", len(wantCaps), len(gotCaps))
				}
				for k, wv := range wantCaps {
					gv, ok := gotCaps[k]
					if !ok {
						t.Fatalf("batched path missed hook site %+v", k)
					}
					for i := range wv {
						if wv[i] != gv[i] {
							t.Fatalf("hook %+v elem %d: %g vs %g", k, i, wv[i], gv[i])
						}
					}
				}
			})
		}
	}
}

// TestBatchedPrefillMidContext checks prefill appended after existing
// context (a second Prefill on a warm state) stays identical to the
// sequential path — positions, RoPE angles, and the causal window all
// shift by the existing Pos.
func TestBatchedPrefillMidContext(t *testing.T) {
	spec := testSpec(LlamaS)
	p1 := promptOf(5, spec.Config.Vocab)
	p2 := promptOf(9, spec.Config.Vocab)

	run := func(sequential bool) ([]float32, *State) {
		m := MustBuild(spec)
		m.SetSequentialPrefill(sequential)
		st := m.NewState()
		st.Prefill(p1)
		logits := append([]float32(nil), st.Prefill(p2)...)
		return logits, st
	}
	wantLogits, wantSt := run(true)
	gotLogits, gotSt := run(false)
	for i := range wantLogits {
		if wantLogits[i] != gotLogits[i] {
			t.Fatalf("logit %d: %g vs %g", i, wantLogits[i], gotLogits[i])
		}
	}
	if err := statesEqual(wantSt, gotSt); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedPrefillHookMutationPropagates ensures a mutating hook (the
// fault-injection mechanism) applied at a prompt position changes the
// batched result exactly as it changes the sequential one.
func TestBatchedPrefillHookMutationPropagates(t *testing.T) {
	spec := testSpec(QwenS)
	prompt := promptOf(11, spec.Config.Vocab)
	// Block 0 so the corrupted position's later-block KV rows carry the
	// mutation into the final position's logits.
	target := LayerRef{0, KindUp, -1}

	run := func(sequential bool) []float32 {
		m := MustBuild(spec)
		m.SetSequentialPrefill(sequential)
		m.AddHook(func(ref LayerRef, pos int, out []float32) {
			if ref == target && pos == 6 {
				out[3] += 40
			}
		})
		st := m.NewState()
		return append([]float32(nil), st.Prefill(prompt)...)
	}
	want := run(true)
	got := run(false)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("logit %d: %g vs %g", i, want[i], got[i])
		}
	}
	// Sanity: the mutation must actually reach the logits.
	m := MustBuild(spec)
	clean := m.NewState().Prefill(prompt)
	same := true
	for i := range clean {
		if clean[i] != got[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hook mutation had no effect on prefill output")
	}
}

// TestBatchedPrefillSingleTokenAndOverflow covers the degenerate paths:
// a one-token prompt routes through DecodeStep, and an over-long prompt
// panics before touching the KV cache.
func TestBatchedPrefillSingleTokenAndOverflow(t *testing.T) {
	spec := testSpec(QwenS)
	m := MustBuild(spec)
	st := m.NewState()
	a := append([]float32(nil), st.Prefill([]int{4})...)
	m2 := MustBuild(spec)
	st2 := m2.NewState()
	b := st2.DecodeStep(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("single-token prefill differs from DecodeStep")
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected context-overflow panic")
		}
	}()
	st.Prefill(promptOf(spec.Config.MaxSeq, spec.Config.Vocab))
}

// TestCloneSharedForwardIdentical checks a weight-sharing clone decodes
// exactly like its parent while marked as sharing its weights.
func TestCloneSharedForwardIdentical(t *testing.T) {
	for _, spec := range []Spec{testSpec(QwenS), moeTestSpec(FalconS)} {
		parent := MustBuild(spec)
		clone := parent.CloneShared()
		if !clone.sharedWeights || parent.sharedWeights {
			t.Fatal("sharedWeights flags wrong")
		}
		prompt := promptOf(13, spec.Config.Vocab)
		a := append([]float32(nil), parent.NewState().Prefill(prompt)...)
		b := clone.NewState().Prefill(prompt)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("shared clone logit %d: %g vs %g", i, a[i], b[i])
			}
		}
	}
}

// TestLayerForWritePrivatizes checks the copy-on-write contract: a write
// through LayerForWrite on a shared clone must not leak to the parent or
// to sibling clones, and repeated writes reuse the same private copy.
func TestLayerForWritePrivatizes(t *testing.T) {
	parent := MustBuild(testSpec(QwenS))
	c1 := parent.CloneShared()
	c2 := parent.CloneShared()
	ref := LayerRef{0, KindQ, -1}

	before, _ := parent.Layer(ref)
	orig := before.Get(0, 0)

	w, err := c1.LayerForWrite(ref)
	if err != nil {
		t.Fatal(err)
	}
	restore := w.(*Dense).FlipBits(0, 0, []int{0, 1})
	flipped := w.Get(0, 0)
	if flipped == orig {
		t.Fatal("flip had no effect")
	}
	for name, m := range map[string]*Model{"parent": parent, "sibling": c2} {
		lw, _ := m.Layer(ref)
		if lw.Get(0, 0) != orig {
			t.Fatalf("%s weight mutated through shared clone", name)
		}
	}
	restore()

	// A second write to the same ref must hit the already-private copy.
	w2, err := c1.LayerForWrite(ref)
	if err != nil {
		t.Fatal(err)
	}
	if w2 != w {
		t.Fatal("second LayerForWrite re-copied an already-private weight")
	}
	// The private copy must carry identical values after restore.
	if w2.Get(0, 0) != orig {
		t.Fatal("restore did not return private copy to original value")
	}

	// LayerForWrite on a deep model is a plain Layer lookup.
	dw, err := parent.LayerForWrite(ref)
	if err != nil {
		t.Fatal(err)
	}
	if dw != before {
		t.Fatal("LayerForWrite on a non-shared model must not copy")
	}
}

// TestForkForCrossModel checks snapshot forking onto a clone: generation
// from the fork on the clone matches generation continued on the parent.
func TestForkForCrossModel(t *testing.T) {
	spec := testSpec(QwenS)
	parent := MustBuild(spec)
	prompt := promptOf(8, spec.Config.Vocab)

	st := parent.NewState()
	st.Prefill(prompt)
	snap := st.Fork()

	a := append([]float32(nil), st.DecodeStep(5)...)

	clone := parent.CloneShared()
	st2 := snap.ForkFor(clone)
	b := st2.DecodeStep(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forked decode logit %d: %g vs %g", i, a[i], b[i])
		}
	}

	other := MustBuild(testSpec(FalconS))
	other.Cfg.MaxSeq = spec.Config.MaxSeq + 8
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ForkFor across architectures must panic")
			}
		}()
		snap.ForkFor(other)
	}()
}

// TestForkAtPosition pins the positional fork: a state that has decoded
// on, forked at p, equals — KV row for row and ExpertTrace entry for
// entry — a state prefilled and decoded only as far as p, onto a recycled
// dst that held something else and onto a fresh one; and the decode that
// continues from the fork reproduces the original's logits. Forking
// beyond the cursor has no rows to copy and panics.
func TestForkAtPosition(t *testing.T) {
	for name, spec := range map[string]Spec{"dense": testSpec(QwenS), "moe": moeSpec()} {
		t.Run(name, func(t *testing.T) {
			m := MustBuild(spec)
			prompt := promptOf(6, spec.Config.Vocab)
			toks := []int{5, 9, 2, 7, 3}
			run := func(steps int) (*State, []float32) {
				st := m.NewState()
				if m.Cfg.IsMoE() {
					st.EnableExpertTrace()
				}
				logits := st.Prefill(prompt)
				for _, tok := range toks[:steps] {
					logits = st.DecodeStep(tok)
				}
				return st, append([]float32(nil), logits...)
			}
			full, _ := run(len(toks))
			clone := m.CloneShared()
			recycled, _ := run(len(toks)) // stale rows and trace to overwrite
			for steps := 0; steps <= len(toks); steps++ {
				want, _ := run(steps)
				p := len(prompt) + steps
				for _, dst := range []*State{nil, recycled} {
					got := full.ForkAtInto(clone, dst, p)
					if err := statesEqual(want, got); err != nil {
						t.Fatalf("fork at %d: %v", p, err)
					}
					if steps == len(toks) {
						continue
					}
					_, next := run(steps + 1)
					for i, v := range got.DecodeStep(toks[steps]) {
						if v != next[i] {
							t.Fatalf("fork at %d: continued logit %d is %g, want %g", p, i, v, next[i])
						}
					}
				}
			}
			if err := statesEqual(full, full.ForkForInto(clone, recycled)); err != nil {
				t.Fatalf("ForkForInto is the fork at the cursor: %v", err)
			}
			for _, p := range []int{-1, full.Pos + 1} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("fork at %d of a state at %d must panic", p, full.Pos)
						}
					}()
					full.ForkAtInto(clone, nil, p)
				}()
			}
		})
	}
}
