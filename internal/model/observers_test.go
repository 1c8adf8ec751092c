package model

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// countingChecker counts the rows it checks; safe for a sharded prefill's
// concurrent calls.
type countingChecker struct{ rows atomic.Int64 }

func (c *countingChecker) CheckLinear(_ LayerRef, _ Weight, pos []int, _, _ []float32) {
	c.rows.Add(int64(len(pos)))
}

// armed is a hook, an attention hook, a checker and a strike, each
// counting or changing what it observes, and the observers carrying them.
type armed struct {
	hooks, attn atomic.Int64
	checker     countingChecker
	obs         Observers
}

func arm(m *Model) *armed {
	a := &armed{}
	ref := LayerRef{1, KindUp, -1}
	w, err := m.Layer(ref)
	if err != nil {
		panic(err)
	}
	a.obs = Observers{
		Hooks: []Hook{func(ref LayerRef, pos int, out []float32) {
			a.hooks.Add(1)
			if ref.Kind == KindDown && ref.Block == 0 && pos == 5 {
				out[1] += 30
			}
		}},
		AttnHooks: []Hook{func(LayerRef, int, []float32) { a.attn.Add(1) }},
		Checker:   &a.checker,
		Strike:    &Strike{Ref: ref, W: w.Struck(2, 3, []int{13, 14})},
	}
	return a
}

// fired reports whether each of a's observers saw something.
func (a *armed) fired() bool {
	return a.hooks.Load() > 0 && a.attn.Load() > 0 && a.checker.rows.Load() > 0
}

// TestStateObservers pins the observer slot to the state. A hook, an
// attention hook, a checker and a strike on one state leave a second
// state of the same model bit-identical to an unarmed run while both run
// at once — prefill (the unarmed one sharded), decode steps, and rows of
// one Batch.Step, where each row runs under its own state's observers and
// the armed row equals its state stepping alone. Fork and ForkAtInto
// carry the observers, into a recycled dst too; NewState, Reset,
// Prefix.ForkInto and ForkDepth into a recycled dst carry none.
func TestStateObservers(t *testing.T) {
	spec := depthSpec(false)
	spec.Config.MaxSeq = 64
	m := MustBuild(spec)
	m.SetThreads(2)
	prompt := promptOf(40, m.Cfg.Vocab)
	toks := []int{5, 9, 2, 7}
	want := feed(m.NewState(), prompt, toks)

	a := arm(m)
	var armedLogits, cleanLogits [][]float32
	armedSt, cleanSt := m.NewState(), m.NewState()
	armedSt.Observers = a.obs
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); armedLogits = feed(armedSt, prompt, toks) }()
	go func() { defer wg.Done(); cleanLogits = feed(cleanSt, prompt, toks) }()
	wg.Wait()
	for i := range want {
		sameBits(t, fmt.Sprintf("unarmed state beside an armed one, step %d", i), cleanLogits[i], want[i])
	}
	if !a.fired() || reflect.DeepEqual(armedLogits, want) {
		t.Fatalf("the armed state's observers fired %v; its logits moved %v", a.fired(), !reflect.DeepEqual(armedLogits, want))
	}

	// One Batch.Step: an armed row and an unarmed one, each equal to its
	// state stepping alone.
	solo := armedSt.Fork()
	wantArmed := solo.DecodeStep(3)
	rows := []*DecodeRow{
		{St: armedSt.Fork(), Tok: 3, Logits: make([]float32, m.Cfg.Vocab)},
		{St: cleanSt.Fork(), Tok: 3, Logits: make([]float32, m.Cfg.Vocab)},
	}
	m.NewBatch(2).Step(rows)
	sameBits(t, "armed batch row", rows[0].Logits, wantArmed)
	sameBits(t, "unarmed batch row", rows[1].Logits, cleanSt.DecodeStep(3))
	if slices.Equal(rows[0].Logits, rows[1].Logits) {
		t.Fatal("the armed and unarmed rows decoded the same logits")
	}

	// Forks carry the observers.
	recycled := m.NewState()
	recycled.Observers = arm(m).obs
	for name, f := range map[string]*State{
		"Fork":                armedSt.Fork(),
		"ForkForInto":         armedSt.ForkForInto(m, nil),
		"ForkAtInto recycled": armedSt.ForkAtInto(m, recycled, len(prompt)),
	} {
		if !sameObservers(f.Observers, armedSt.Observers) {
			t.Fatalf("%s: the fork's observers are not its source's", name)
		}
	}

	// Every other way to start an inference starts unobserved.
	rec := m.NewState()
	rec.RecordDepth(0)
	rec.Prefill(prompt)
	px := rec.Snapshot()
	if !sameObservers(m.NewState().Observers, Observers{}) {
		t.Fatal("NewState: a fresh state carries observers")
	}
	for name, start := range map[string]func(dst *State) *State{
		"Reset":           func(dst *State) *State { dst.Reset(); return dst },
		"Prefix.ForkInto": func(dst *State) *State { return px.ForkInto(m, dst, 7) },
		"ForkDepth":       func(dst *State) *State { return px.ForkDepth(m, dst, 7, 1) },
	} {
		dst := m.NewState()
		dst.Observers = arm(m).obs
		dst.Prefill(prompt[:3])
		if got := start(dst); !sameObservers(got.Observers, Observers{}) {
			t.Fatalf("%s into a recycled state kept its observers", name)
		}
	}
}

// sameObservers reports whether a and b hold the same hooks (by
// position and code pointer), checker and strike.
func sameObservers(a, b Observers) bool {
	ptrs := func(hs []Hook) []string {
		var out []string
		for _, h := range hs {
			out = append(out, fmt.Sprintf("%p", h))
		}
		return out
	}
	return slices.Equal(ptrs(a.Hooks), ptrs(b.Hooks)) && slices.Equal(ptrs(a.AttnHooks), ptrs(b.AttnHooks)) &&
		a.Checker == b.Checker && a.Strike == b.Strike
}

// TestRecordDepthGrowsWithTheRun: a recording state's depth planes grow
// as it runs, as its own KV rows do, instead of holding MaxSeq rows from
// the start: after every prefill and decode step they hold at most twice
// the rows written plus kAlign, every plane as many as the token record,
// and never more than MaxSeq's worth.
func TestRecordDepthGrowsWithTheRun(t *testing.T) {
	spec := depthSpec(false)
	spec.Config.MaxSeq = 64
	m := MustBuild(spec)
	d := m.Cfg.DModel
	for _, lo := range []int{0, 3, 20} {
		st := m.NewState()
		st.RecordDepth(lo)
		check := func(what string) {
			t.Helper()
			rows, written := len(st.rec.toks), max(st.Pos-lo, 0)
			if rows > 2*written+kAlign || rows > m.Cfg.MaxSeq-lo || rows < written {
				t.Fatalf("lo %d, %s at %d: %d rows for %d written", lo, what, st.Pos, rows, written)
			}
			for s, res := range st.rec.res {
				if len(res) != rows*d {
					t.Fatalf("lo %d, %s: plane %d holds %d values for %d rows", lo, what, s, len(res), rows)
				}
			}
		}
		check("recording")
		st.Prefill(promptOf(9, m.Cfg.Vocab))
		check("prefill")
		st.Prefill(promptOf(30, m.Cfg.Vocab))
		check("second prefill")
		for st.Pos < m.Cfg.MaxSeq {
			st.DecodeStep(st.Pos % m.Cfg.Vocab)
			check("decode")
		}
	}
}
