package gen

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/token"
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
	from, points := decoded(m, prompt, s)
	first := l.AdmitFork(from, points[0], Arm{
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
	l.AdmitFork(from, points[0], Arm{}, 1)
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
	fromA, pointsA := decoded(m, a, s)
	fromB, pointsB := decoded(m, b, s)
	sa := l.AdmitFork(fromA, pointsA[0], Arm{}, "a")
	sb := l.AdmitFork(fromB, pointsB[0], Arm{}, "b")
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

// decoded runs the clean greedy decode of prompt and returns a snapshot
// of the state it finished on with its resume points — what AdmitFork
// re-enters.
func decoded(m *model.Model, prompt []int, s Settings) (*model.Prefix, []Resume) {
	st := m.NewState()
	_, points := ResumableGreedy(m, st, st.Prefill(prompt), s)
	return st.Snapshot(), points
}

type countingChecker struct{ n *int }

func (c countingChecker) CheckLinear(model.LayerRef, int, model.Weight, []float32, []float32) {
	*c.n++
}

// TestAdmitForkAtEveryResumePoint re-enters a clean decode at each of its
// resume points g with a strike armed on the row at position promptLen+g,
// and requires the Result — Tokens, LogProb, Steps, Stopped — of
// ContinueGreedy run from the prompt under the same strike: the steps
// before g are the clean decode's own. The row's hook must see exactly
// the calls the whole run's hook sees from the strike position on, and
// none before it. The decodes end three ways: on the token budget, on an
// EOS (forced at a fixed position, in the clean decode and every struck
// one alike) and on the model's MaxSeq; each one's last resume point is
// where it ended, and comes back Done.
func TestAdmitForkAtEveryResumePoint(t *testing.T) {
	m := testModel(9)
	long := make([]int, m.Cfg.MaxSeq-5)
	for i := range long {
		long[i] = 1 + (i*7)%(m.Cfg.Vocab-1)
	}
	noStop := func(n int) Settings {
		s := Defaults(n)
		s.MinNewTokens = n
		return s
	}
	cases := []struct {
		name     string
		prompt   []int
		s        Settings
		eosAt    int // force EOS from this position on (0 = never)
		wantLive bool
	}{
		{"budget", []int{1, 5, 6, 3}, noStop(9), 0, true},
		{"eos", []int{1, 5, 6, 3}, Defaults(12), 4 + 5, false},
		{"maxseq", long, noStop(20), 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// observer builds the hook of one run: the forced EOS, a strike
			// at strikePos (none when negative), and a count of the calls
			// from position from on.
			observer := func(strikePos, from int, calls *int, early *bool) model.Hook {
				return func(ref model.LayerRef, pos int, out []float32) {
					if pos >= from {
						*calls++
					} else {
						*early = true
					}
					if pos == strikePos && ref.Kind == model.KindDown && ref.Block == 0 {
						for i := range out {
							out[i] = -3 * out[i]
						}
					}
					if tc.eosAt > 0 && ref.Kind == model.KindLMHead && pos >= tc.eosAt {
						out[token.EOS] = 1e4
					}
				}
			}
			var n int
			var early bool
			m.AddHook(observer(-1, len(tc.prompt), &n, &early))
			from, points := decoded(m, tc.prompt, tc.s)
			m.ClearHooks()
			clean := points[len(points)-1].sp.Result()
			if last := points[len(points)-1]; last.live || points[0].pos != len(tc.prompt) ||
				len(points) < len(clean.Tokens) || clean.Stopped != (tc.eosAt > 0) {
				t.Fatalf("%d resume points for %d tokens (stopped %v), first at %d, last live %v",
					len(points), len(clean.Tokens), clean.Stopped, points[0].pos, last.live)
			}

			changed := 0
			l := NewLoop[int](m, 1)
			for g, at := range points {
				strikePos := len(tc.prompt) + g
				var wantCalls, gotCalls int
				var ignored, gotEarly bool
				st := m.NewState()
				logits := st.Prefill(tc.prompt)
				m.AddHook(observer(strikePos, strikePos, &wantCalls, &ignored))
				want := ContinueGreedy(m, st, logits, tc.s)
				m.ClearHooks()

				seq := l.AdmitFork(from, at, Arm{Hooks: []model.Hook{observer(strikePos, strikePos, &gotCalls, &gotEarly)}}, g)
				if seq.Done() != !at.live {
					t.Fatalf("point %d: admitted Done %v, decode went on %v", g, seq.Done(), at.live)
				}
				for l.Len() > 0 {
					l.Step()
				}
				if got := seq.Result(); !reflect.DeepEqual(got, want) {
					t.Fatalf("point %d: resumed decode %+v, want %+v", g, got, want)
				}
				if gotCalls != wantCalls || gotEarly {
					t.Fatalf("point %d: row hook saw %d calls (before the strike: %v), whole run %d", g, gotCalls, gotEarly, wantCalls)
				}
				if !reflect.DeepEqual(want.Tokens, clean.Tokens) {
					changed++
				}
				l.Release(seq)
			}
			if tc.wantLive && changed == 0 {
				t.Fatal("no strike changed the output; the test would not notice a strike that never lands")
			}
			// The points share the clean decode's token array; a resumed
			// sequence appending to its copy must not have written into it.
			if again := points[len(points)-1].sp.Result(); !reflect.DeepEqual(again, clean) {
				t.Fatalf("resumed sequences rewrote the clean decode: %+v, was %+v", again, clean)
			}
		})
	}
}
