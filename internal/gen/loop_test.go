package gen

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/token"
)

// serialRef decodes prompt through the seed oracle: GenerateFrom over
// State.DecodeStep.
func serialRef(m *model.Model, prompt []int, s Settings) Result {
	st := m.NewState()
	return GenerateFrom(m, st, st.Prefill(prompt), s)
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
			t.Fatalf("width %d: loop results differ from GenerateFrom:\n got %+v\nwant %+v", width, got, want)
		}
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
	first := l.AdmitFork(from, points[0], 0, Arm{Observers: model.Observers{
		Hooks:     []model.Hook{strike},
		AttnHooks: []model.Hook{strike},
		Checker:   countingChecker{&checks},
	}}, 0)
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
	l.AdmitFork(from, points[0], 0, Arm{}, 1)
	next := make(map[int]Result)
	drain(l, next)
	if !reflect.DeepEqual(next[1], clean) {
		t.Fatalf("tenant on a recycled row decoded %+v, want the clean %+v", next[1], clean)
	}
	if checks != 0 {
		t.Fatalf("previous tenant's checker observed the next tenant %d times", checks)
	}
}

// TestAdmitPromptRowScoped admits prompts the loop prefills on rows of
// their own. A row carrying a hook and a weight strike decodes what
// GenerateFrom decodes after Prefill on a model carrying the same two,
// its hook seeing every position of the prompt and nothing of the clean
// row prefilled and stepped beside it, which decodes the clean sequence.
// Then both rows are recycled: a depth fork of a recorded clean decode at
// the strike's sublayer decodes the struck sequence again, skipping the
// clean sublayers of the prompt, and an empty state decodes the clean one
// — nothing of a row's previous tenant carries over.
func TestAdmitPromptRowScoped(t *testing.T) {
	m := testModel(10)
	prompt := []int{1, 5, 6, 3, 7}
	s := Defaults(10)
	s.MinNewTokens = 10
	out := model.LayerRef{Block: 1, Kind: model.KindOut, Expert: -1}
	w, err := m.Layer(out)
	if err != nil {
		t.Fatal(err)
	}
	strike := &model.Strike{Ref: out, W: w.Struck(2, 3, []int{30})}
	counter := func(calls, prompted *int) model.Hook {
		return func(_ model.LayerRef, pos int, _ []float32) {
			*calls++
			if pos < len(prompt) {
				*prompted++
			}
		}
	}

	clean := serialRef(m, prompt, s)
	var wantCalls, wantPrompted int
	m.SetObservers(model.Observers{Hooks: []model.Hook{counter(&wantCalls, &wantPrompted)}, Strike: strike})
	struck := serialRef(m, prompt, s)
	m.SetObservers(model.Observers{})
	if reflect.DeepEqual(struck, clean) || wantPrompted == 0 {
		t.Fatalf("the strike left the decode clean (%v) or the hook saw no prompt position (%d)", struck.Tokens, wantPrompted)
	}
	rec := m.NewState()
	rec.RecordDepth(0)
	GenerateFrom(m, rec, rec.Prefill(prompt), s)
	from := rec.Snapshot()

	l := NewLoop[int](m, 2)
	var calls, prompted int
	a := l.AdmitPrompt(nil, -1, prompt, NewStepper(s), Arm{Observers: model.Observers{Hooks: []model.Hook{counter(&calls, &prompted)}, Strike: strike}}, 0)
	b := l.AdmitPrompt(nil, -1, prompt, NewStepper(s), Arm{}, 1)
	got := make(map[int]Result)
	drain(l, got)
	if !reflect.DeepEqual(got, map[int]Result{0: struck, 1: clean}) {
		t.Fatalf("struck row %+v, want %+v; clean row %+v, want %+v", got[0], struck, got[1], clean)
	}
	if calls != wantCalls || prompted != wantPrompted {
		t.Fatalf("row hook saw %d calls (%d in the prompt), the whole model's %d (%d)", calls, prompted, wantCalls, wantPrompted)
	}
	if !a.Done() || !b.Done() {
		t.Fatal("admitted sequences still live after the loop drained")
	}

	c := l.AdmitPrompt(from, out.Sublayer(), prompt, NewStepper(s), Arm{Observers: model.Observers{Strike: strike}}, 2)
	matched := c.State().DepthMatched()
	l.AdmitPrompt(nil, -1, prompt, NewStepper(s), Arm{}, 3)
	drain(l, got)
	if !reflect.DeepEqual(got[2], struck) || !reflect.DeepEqual(got[3], clean) {
		t.Fatalf("recycled rows: depth fork %+v, want %+v; empty state %+v, want %+v", got[2], struck, got[3], clean)
	}
	if matched != len(prompt) {
		t.Fatalf("the depth fork matched %d prompt positions, want %d", matched, len(prompt))
	}
}

// TestAdmitForkInDepth re-enters a clean decode, recorded with depth
// planes from the prompt's end, at each of its resume points on rows
// carrying a weight strike in block 1's attention, once in time alone
// (depth 0) and once in depth too, at the strike's sublayer, side by side
// on one loop: each pair must decode the same Result, some of them not
// the clean one, and the depth forks must have read positions from the
// planes.
func TestAdmitForkInDepth(t *testing.T) {
	m := testModel(10)
	prompt := []int{1, 5, 6, 3, 7}
	s := Defaults(10)
	s.MinNewTokens = 10
	out := model.LayerRef{Block: 1, Kind: model.KindOut, Expert: -1}
	w, err := m.Layer(out)
	if err != nil {
		t.Fatal(err)
	}
	arm := Arm{Observers: model.Observers{Strike: &model.Strike{Ref: out, W: w.Struck(2, 3, []int{30})}}}
	rec := m.NewState()
	rec.RecordDepth(len(prompt))
	_, points := ResumableGreedy(m, rec, rec.Prefill(prompt), s)
	from := rec.Snapshot()

	clean := points[len(points)-1].sp.Result()

	l := NewLoop[int](m, 2)
	got := map[int]Result{}
	matched, changed := 0, 0
	retire := func(seq *Seq[int]) {
		got[seq.Owner] = seq.Result()
		if seq.Owner%2 == 1 {
			matched += seq.State().DepthMatched()
		}
		l.Release(seq)
	}
	for g, at := range points {
		for k, depth := range []int{0, out.Sublayer()} {
			if seq := l.AdmitFork(from, at, depth, arm, 2*g+k); seq.Done() {
				retire(seq)
			}
		}
		for l.Len() > 0 {
			for _, seq := range l.Step() {
				retire(seq)
			}
		}
		if !reflect.DeepEqual(got[2*g+1], got[2*g]) {
			t.Fatalf("point %d: forked in depth %+v, in time alone %+v", g, got[2*g+1], got[2*g])
		}
		if !reflect.DeepEqual(got[2*g].Tokens, clean.Tokens) {
			changed++
		}
	}
	if matched == 0 || changed == 0 {
		t.Fatalf("depth forks read %d positions from the planes; %d struck decodes changed", matched, changed)
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
	sa := l.AdmitFork(fromA, pointsA[0], 0, Arm{}, "a")
	sb := l.AdmitFork(fromB, pointsB[0], 0, Arm{}, "b")
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

func (c countingChecker) CheckLinear(model.LayerRef, model.Weight, []int, []float32, []float32) {
	*c.n++
}

// TestAdmitForkAtEveryResumePoint re-enters a clean decode at each of its
// resume points g with a strike armed on the row at position promptLen+g,
// and requires the Result — Tokens, LogProb, Steps, Stopped — of
// GenerateFrom run from the prompt under the same strike: the steps
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
				want := GenerateFrom(m, st, logits, tc.s)
				m.ClearHooks()

				arm := Arm{Observers: model.Observers{Hooks: []model.Hook{observer(strikePos, strikePos, &gotCalls, &gotEarly)}}}
				seq := l.AdmitFork(from, at, 0, arm, g)
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

// callKey is one hook observation: the layer and the position it computed.
type callKey struct {
	ref model.LayerRef
	pos int
}

func callCounter(calls map[callKey]int) model.Hook {
	return func(ref model.LayerRef, pos int, _ []float32) { calls[callKey{ref, pos}]++ }
}

// TestScorerMatchesScoreOptionLoop pins the Scorer to the decode loop
// ScoreOption used to run of its own (scoreOptionRef), bit for bit:
// ScoreOption itself, and each option teacher-forced on a row of a
// width-4 loop while greedy rows decode beside it. A hook on the row must
// see each (layer, position) exactly as often as one on the model sees it
// under the oracle — the option's last step, whose logits nothing reads,
// included. Options run from empty to five tokens, and one runs into the
// model's MaxSeq, past which the oracle scores one more token and stops.
func TestScorerMatchesScoreOptionLoop(t *testing.T) {
	m := testModel(12)
	prompt := []int{1, 5, 6, 3}
	var options [][]int
	for n := 0; n <= 5; n++ {
		opt := make([]int, n)
		for i := range opt {
			opt[i] = 1 + (n*5+i*7)%(m.Cfg.Vocab-1)
		}
		options = append(options, opt)
	}
	long := make([]int, m.Cfg.MaxSeq-len(prompt)+2)
	for i := range long {
		long[i] = 1 + (i*11)%(m.Cfg.Vocab-1)
	}
	options = append(options, long)

	want := make([]float64, len(options))
	wantCalls := make([]map[callKey]int, len(options))
	for k, opt := range options {
		wantCalls[k] = map[callKey]int{}
		m.AddHook(callCounter(wantCalls[k]))
		want[k] = scoreOptionRef(m, prompt, opt)
		m.PopHook()
		if got := ScoreOption(m, prompt, opt); math.Float64bits(got) != math.Float64bits(want[k]) {
			t.Fatalf("option %d: ScoreOption %v, the oracle %v", k, got, want[k])
		}
		last := callKey{model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1}, len(prompt) + len(opt) - 1}
		if len(opt) > 0 && k < len(options)-1 && wantCalls[k][last] != 1 {
			t.Fatalf("option %d: the oracle's hook saw the unread last step %d times", k, wantCalls[k][last])
		}
	}

	// Greedy rows, owners 100 on, decode beside the scorers.
	greedy := [][]int{{1, 7, 2}, {1, 9, 4, 11, 3}, {1, 12}}
	l := NewLoop[int](m, 4)
	got := make(map[int]Result)
	gotCalls := make([]map[callKey]int, len(options))
	admit := func(owner int, prompt []int, sp Stepper, arm Arm) {
		for l.Free() == 0 {
			stepInto(l, got)
		}
		if s := l.AdmitPrompt(nil, -1, prompt, sp, arm, owner); s.Done() {
			got[owner] = s.Result()
			l.Release(s)
		}
	}
	for k, opt := range options {
		if k < len(greedy) {
			admit(100+k, greedy[k], NewStepper(Defaults(6+k)), Arm{})
		}
		gotCalls[k] = map[callKey]int{}
		admit(k, prompt, Scorer(opt), Arm{Observers: model.Observers{Hooks: []model.Hook{callCounter(gotCalls[k])}}})
	}
	drain(l, got)
	for k := range options {
		if math.Float64bits(got[k].LogProb) != math.Float64bits(want[k]) {
			t.Fatalf("option %d on a row: %v, the oracle %v", k, got[k].LogProb, want[k])
		}
		if !reflect.DeepEqual(gotCalls[k], wantCalls[k]) {
			t.Fatalf("option %d: the row's hook saw %d (layer, position) pairs, the oracle's %d, or counted them differently",
				k, len(gotCalls[k]), len(wantCalls[k]))
		}
	}
	for j, p := range greedy {
		if w := serialRef(m, p, Defaults(6+j)); !reflect.DeepEqual(got[100+j], w) {
			t.Fatalf("greedy row %d beside the scorers decoded %+v, want %+v", j, got[100+j], w)
		}
	}
}

// TestRebudgetMatchesDecodeUnderBudget forks a decode of budget N at each
// point g < min(M, N), re-budgeted to M, and gets the decode of budget M
// from the prompt's end: its tokens, steps, stop and log-probability — for
// budgets below, equal to and above N, over a decode that runs its budget
// out and one that stops on EOS. A point at or past min(M, N) refuses.
func TestRebudgetMatchesDecodeUnderBudget(t *testing.T) {
	m := testModel(12)
	prompt := []int{1, 5, 6, 3, 7}
	// eos forces EOS from position at on and bans it before.
	eos := func(at int) model.Hook {
		return func(ref model.LayerRef, pos int, out []float32) {
			if ref.Kind == model.KindLMHead {
				out[token.EOS] = float32(math.Copysign(1e4, float64(pos-at)+0.5))
			}
		}
	}
	for _, tc := range []struct {
		name  string
		eosAt int
	}{{"budget", m.Cfg.MaxSeq}, {"eos", len(prompt) + 4}} {
		t.Run(tc.name, func(t *testing.T) {
			// The hook rides the model for the serial decodes and the row
			// for the loop's, which ignores the model's.
			hook := eos(tc.eosAt)
			m.AddHook(hook)
			defer m.ClearHooks()
			arm := Arm{Observers: model.Observers{Hooks: []model.Hook{hook}}}
			const n = 8
			from, points := decoded(m, prompt, Defaults(n))
			if stopped := points[len(points)-1].sp.Result().Stopped; stopped != (tc.eosAt < m.Cfg.MaxSeq) {
				t.Fatalf("clean decode stopped %v", stopped)
			}
			l := NewLoop[int](m, 1)
			for _, budget := range []int{3, n, n + 5} {
				want := serialRef(m, prompt, Defaults(budget))
				shared := min(budget, n, len(points))
				for g := range shared {
					seq := l.AdmitFork(from, points[g].Rebudget(budget), 0, arm, g)
					for l.Len() > 0 {
						l.Step()
					}
					if got := seq.Result(); !reflect.DeepEqual(got, want) {
						t.Fatalf("budget %d, point %d: %+v, want %+v", budget, g, got, want)
					}
					l.Release(seq)
				}
				for g := shared; g < len(points); g++ {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("point %d of a %d-token decode rebudgeted to %d", g, n, budget)
							}
						}()
						points[g].Rebudget(budget)
					}()
				}
			}
		})
	}
}
