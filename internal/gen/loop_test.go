package gen

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// serialRef decodes prompt through the seed oracle: ContinueGreedy over
// State.DecodeStep.
func serialRef(m *model.Model, prompt []int, s Settings) Result {
	st := m.NewState()
	return ContinueGreedy(m, st, st.Prefill(prompt), s)
}

// stepInto runs one loop step, recording what finished by owner index.
func stepInto(l *Loop[int], out map[int]Result) {
	for _, s := range l.Step() {
		out[s.Owner] = s.Result()
		l.Release(s)
	}
}

// drain steps the loop to empty.
func drain(l *Loop[int], out map[int]Result) {
	for l.Len() > 0 {
		stepInto(l, out)
	}
}

// TestLoopMatchesContinueGreedy pins the loop to the serial generator at
// width 1 and at widths that interleave sequences of different lengths
// and budgets, including ones that finish on their prefix logits.
func TestLoopMatchesContinueGreedy(t *testing.T) {
	m := testModel(5)
	prompts := [][]int{{1, 5, 6}, {1, 7}, {1, 9, 4, 11, 3}, {1, 8, 8, 2}, {1, 12}}
	budgets := []int{9, 0, 14, 1, 6}
	want := make(map[int]Result)
	for i, p := range prompts {
		want[i] = serialRef(m, p, Defaults(budgets[i]))
	}
	for _, width := range []int{0, 1, 2, 8} {
		l := NewLoop[int](m, width)
		got := make(map[int]Result)
		for i, p := range prompts {
			for l.Free() == 0 {
				stepInto(l, got)
			}
			st := m.NewState()
			s := l.Admit(st, st.Prefill(p), Defaults(budgets[i]), Arm{}, i)
			if s.Done() {
				got[i] = s.Result()
				l.Release(s)
			}
		}
		drain(l, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: loop results differ from ContinueGreedy:\n got %+v\nwant %+v", width, got, want)
		}
	}
}

// TestLoopShardedMatchesContinueGreedy is the loop at width 8 with the
// step sharded four ways (SetThreads, so the machine's core count does
// not matter): twelve sequences of different lengths and budgets recycle
// through the rows, each struck and observed by a hook, an attention
// hook and a checker of its own, which the shards run concurrently.
// Every sequence must decode what ContinueGreedy decodes under the same
// observers registered on the model, and its observers must fire exactly
// as often; the race detector checks that rows share nothing.
func TestLoopShardedMatchesContinueGreedy(t *testing.T) {
	m := testModel(8)
	const seqs = 12
	prompt := func(i int) []int {
		p := make([]int, 2+i%5)
		for j := range p {
			p[j] = 1 + (i*3+j*5)%(m.Cfg.Vocab-1)
		}
		return p
	}
	settings := func(i int) Settings {
		s := Defaults(3 + (i*7)%11)
		s.MinNewTokens = s.MaxNewTokens / 2
		return s
	}
	// observers builds sequence i's own: a hook that strikes its second
	// decoded position, and counters behind all three observer slots.
	type counts struct{ hook, attn, check int }
	observers := func(i int, c *counts) Arm {
		strikePos := len(prompt(i)) + 1
		return Arm{
			Hooks: []model.Hook{func(ref model.LayerRef, pos int, out []float32) {
				c.hook++
				if pos == strikePos && ref.Kind == model.KindUp && ref.Block == 0 {
					out[i%len(out)] += 3
				}
			}},
			AttnHooks: []model.Hook{func(model.LayerRef, int, []float32) { c.attn++ }},
			Checker:   countingChecker{&c.check},
		}
	}

	want := make(map[int]Result)
	wantCounts := make([]counts, seqs)
	for i := 0; i < seqs; i++ {
		st := m.NewState()
		logits := st.Prefill(prompt(i))
		arm := observers(i, &wantCounts[i])
		m.AddHook(arm.Hooks[0])
		m.AddAttnHook(arm.AttnHooks[0])
		m.SetChecker(arm.Checker)
		want[i] = ContinueGreedy(m, st, logits, settings(i))
		m.ClearHooks()
		m.ClearAttnHooks()
		m.SetChecker(nil)
	}

	m.SetThreads(4)
	l := NewLoop[int](m, 8)
	got := make(map[int]Result)
	gotCounts := make([]counts, seqs)
	for i := 0; i < seqs; i++ {
		for l.Free() == 0 {
			stepInto(l, got)
		}
		st := m.NewState()
		l.Admit(st, st.Prefill(prompt(i)), settings(i), observers(i, &gotCounts[i]), i)
	}
	drain(l, got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded loop results differ from ContinueGreedy:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(gotCounts, wantCounts) {
		t.Fatalf("observer call counts differ:\n got %+v\nwant %+v", gotCounts, wantCounts)
	}
}

// TestLoopRecycledRowStartsClean recycles a row after a tenant that armed
// every observer slot — an attention-surface strike among them — and
// requires the next tenant, armed with nothing, to decode exactly the
// clean sequence: a recycled row must be re-armed whole.
func TestLoopRecycledRowStartsClean(t *testing.T) {
	m := testModel(6)
	prompt := []int{1, 5, 6, 3}
	s := Defaults(10)
	clean := serialRef(m, prompt, s)

	strike := func(ref model.LayerRef, pos int, out []float32) {
		for i := range out {
			out[i] = -out[i]
		}
	}
	var checks int
	l := NewLoop[int](m, 1)
	first := l.AdmitFork(prefilled(m, prompt), prefixLogits(m, prompt), s, Arm{
		Hooks:     []model.Hook{strike},
		AttnHooks: []model.Hook{strike},
		Checker:   countingChecker{&checks},
	}, 0)
	if first.Done() {
		t.Fatal("first tenant finished on its prefix logits; nothing would be observed")
	}
	struck := make(map[int]Result)
	drain(l, struck)
	if checks == 0 {
		t.Fatal("first tenant's checker never ran")
	}
	if reflect.DeepEqual(struck[0].Tokens, clean.Tokens) {
		t.Fatal("first tenant's strikes did not change its output; the test would not notice a stale hook")
	}

	checks = 0
	l.AdmitFork(prefilled(m, prompt), prefixLogits(m, prompt), s, Arm{}, 1)
	next := make(map[int]Result)
	drain(l, next)
	if !reflect.DeepEqual(next[1], clean) {
		t.Fatalf("tenant on a recycled row decoded %+v, want the clean %+v", next[1], clean)
	}
	if checks != 0 {
		t.Fatalf("previous tenant's checker observed the next tenant %d times", checks)
	}
}

// TestLoopDrop abandons one of two live sequences mid-decode: it keeps
// the partial result it had reached, and its sibling is undisturbed.
func TestLoopDrop(t *testing.T) {
	m := testModel(7)
	s := Defaults(12)
	s.MinNewTokens = 12 // no early stop: both run the full budget
	a, b := []int{1, 5, 6}, []int{1, 9, 2, 4}
	want := serialRef(m, b, s)

	l := NewLoop[string](m, 2)
	sa := l.AdmitFork(prefilled(m, a), prefixLogits(m, a), s, Arm{}, "a")
	sb := l.AdmitFork(prefilled(m, b), prefixLogits(m, b), s, Arm{}, "b")
	l.Step()
	l.Step()
	l.Drop(func(q *Seq[string]) bool { return q.Owner == "a" })
	if !sa.Done() || sb.Done() || l.Len() != 1 {
		t.Fatalf("after Drop: a done %v, b done %v, live %d", sa.Done(), sb.Done(), l.Len())
	}
	if got := len(sa.Result().Tokens); got != 3 {
		t.Fatalf("dropped sequence kept %d tokens, want the 3 chosen so far", got)
	}
	l.Release(sa)
	for l.Len() > 0 {
		l.Step()
	}
	if !reflect.DeepEqual(sb.Result(), want) {
		t.Fatalf("sibling of a dropped sequence decoded %+v, want %+v", sb.Result(), want)
	}
}

func prefilled(m *model.Model, prompt []int) *model.State {
	st := m.NewState()
	st.Prefill(prompt)
	return st
}

func prefixLogits(m *model.Model, prompt []int) []float32 {
	return append([]float32(nil), m.NewState().Prefill(prompt)...)
}

type countingChecker struct{ n *int }

func (c countingChecker) CheckLinear(model.LayerRef, int, model.Weight, []float32, []float32) {
	*c.n++
}
