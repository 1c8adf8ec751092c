package model

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// serialDecode runs toks through DecodeStep one at a time on st,
// recording the logits after every step.
func serialDecode(st *State, toks []int) [][]float32 {
	var out [][]float32
	for _, tok := range toks {
		out = append(out, append([]float32(nil), st.DecodeStep(tok)...))
	}
	return out
}

// recordingChecker counts and records CheckLinear calls — a stand-in for
// the ABFT checker that lets the tests assert per-row dispatch.
type recordingChecker struct {
	calls []hookKey
}

func (c *recordingChecker) CheckLinear(ref LayerRef, w Weight, pos []int, in, out []float32) {
	for _, p := range pos {
		c.calls = append(c.calls, hookKey{ref, p})
	}
}

// Batch.Step is pinned at every (threads, rows) shape below: one thread,
// one row, fewer rows than threads, rows the threads do not divide. The
// step runs on the caller's goroutine whatever the thread budget, so no
// shape may change a bit; SetThreads forces each, so none of it depends
// on the test machine's core count.
var (
	shardThreads = []int{1, 2, 3, 5}
	shardRows    = []int{1, 2, 3, 7, 16}
)

func forShardShapes(t *testing.T, m *Model, f func(t *testing.T, n int)) {
	for _, threads := range shardThreads {
		for _, n := range shardRows {
			t.Run(fmt.Sprintf("threads%d/rows%d", threads, n), func(t *testing.T) {
				m.SetThreads(threads)
				f(t, n)
			})
		}
	}
}

// Row i of the shard tests sits at its own position and decodes its own
// token stream.
const shardSteps = 5

func shardPrompt(i, vocab int) []int  { return promptOf(2+i%6, vocab) }
func shardTok(i, step, vocab int) int { return (i*5 + step*11 + 1) % vocab }

// shardState prefills row i's prompt on a fresh state.
func shardState(m *Model, i int) *State {
	st := m.NewState()
	if m.Cfg.IsMoE() {
		st.EnableExpertTrace()
	}
	st.Prefill(shardPrompt(i, m.Cfg.Vocab))
	return st
}

// shardSerial is row i's reference: its stream through DecodeStep, alone,
// from a state shardState prefilled, under whatever hooks and checker
// the model has registered by now.
func shardSerial(st *State, i int) [][]float32 {
	toks := make([]int, shardSteps)
	for step := range toks {
		toks[step] = shardTok(i, step, st.m.Cfg.Vocab)
	}
	return serialDecode(st, toks)
}

// shardBatch steps rows through a fresh Batch, checking row i's logits
// after every step against want[i].
func shardBatch(t *testing.T, m *Model, rows []*DecodeRow, want [][][]float32) {
	t.Helper()
	b := m.NewBatch(len(rows) + 2) // spare capacity: partial batches
	for step := 0; step < shardSteps; step++ {
		for i, row := range rows {
			row.Tok = shardTok(i, step, m.Cfg.Vocab)
		}
		b.Step(rows)
		for i, row := range rows {
			for j, v := range row.Logits {
				if v != want[i][step][j] {
					t.Fatalf("row %d step %d logit %d: batch %g serial %g", i, step, j, v, want[i][step][j])
				}
			}
		}
	}
}

// TestBatchStepGolden pins Batch.Step bit-for-bit to per-row DecodeStep:
// rows prefilled to different positions, decoding different token
// streams, over dense and MoE profiles and every thread budget. Logits
// after every step and the final KV caches and expert traces must be
// identical to each row stepping alone.
func TestBatchStepGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"dense", testSpec(QwenS)},
		{"moe", moeTestSpec(LlamaS)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustBuild(tc.spec)
			maxRows := shardRows[len(shardRows)-1]
			serialSts := make([]*State, maxRows)
			want := make([][][]float32, maxRows)
			for i := range want {
				serialSts[i] = shardState(m, i)
				want[i] = shardSerial(serialSts[i], i)
			}
			forShardShapes(t, m, func(t *testing.T, n int) {
				rows := make([]*DecodeRow, n)
				for i := range rows {
					rows[i] = &DecodeRow{St: shardState(m, i), Logits: make([]float32, m.Cfg.Vocab)}
				}
				shardBatch(t, m, rows, want)
				for i, row := range rows {
					if err := statesEqual(serialSts[i], row.St); err != nil {
						t.Fatalf("row %d state: %v", i, err)
					}
				}
			})
		})
	}
}

// TestBatchStepPerRowHooks checks fault isolation at every shape: a
// mutating hook on one row must corrupt exactly that row's output
// (identically to the same hook on a serial run) and leave sibling rows
// bit-identical to clean serial runs, and every row's own capture hook
// must observe exactly the vectors its serial run shows a hook — its own
// positions, nobody else's.
func TestBatchStepPerRowHooks(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	vocab := m.Cfg.Vocab
	target := LayerRef{0, KindUp, -1}
	// faultOn strikes row i's second decoded position.
	faultOn := func(i int) Hook {
		faultPos := len(shardPrompt(i, vocab)) + 1
		return func(ref LayerRef, pos int, out []float32) {
			if ref == target && pos == faultPos {
				out[3] += 40
			}
		}
	}
	// serial decodes row i alone with hook registered on the model.
	serial := func(i int, hook Hook) [][]float32 {
		st := shardState(m, i)
		m.AddHook(hook)
		defer m.ClearHooks()
		return shardSerial(st, i)
	}

	maxRows := shardRows[len(shardRows)-1]
	wantClean := make([][][]float32, maxRows)
	wantFaulty := make([][][]float32, maxRows)
	wantCaps := make([]map[hookKey][]float32, maxRows)
	for i := range wantClean {
		wantCaps[i] = map[hookKey][]float32{}
		wantClean[i] = serial(i, captureHook(wantCaps[i]))
		wantFaulty[i] = serial(i, faultOn(i))
	}

	forShardShapes(t, m, func(t *testing.T, n int) {
		faulted := n / 2
		want := append([][][]float32(nil), wantClean[:n]...)
		want[faulted] = wantFaulty[faulted]
		// Every other row carries a capture hook over a map of its own.
		caps := make([]map[hookKey][]float32, n)
		rows := make([]*DecodeRow, n)
		for i := range rows {
			caps[i] = map[hookKey][]float32{}
			hook := captureHook(caps[i])
			if i == faulted {
				hook = faultOn(i)
			}
			rows[i] = &DecodeRow{St: shardState(m, i), Observers: Observers{Hooks: []Hook{hook}}, Logits: make([]float32, vocab)}
		}
		shardBatch(t, m, rows, want)
		for i := range rows {
			if i == faulted {
				continue
			}
			if len(caps[i]) != len(wantCaps[i]) {
				t.Fatalf("row %d hook saw %d call sites, serial %d", i, len(caps[i]), len(wantCaps[i]))
			}
			for k, got := range caps[i] {
				ref, ok := wantCaps[i][k]
				if !ok {
					t.Fatalf("row %d hook observed foreign site %+v", i, k)
				}
				for j := range got {
					if got[j] != ref[j] {
						t.Fatalf("row %d site %+v element %d: batch %g serial %g", i, k, j, got[j], ref[j])
					}
				}
			}
		}
	})
}

// TestBatchStepPerRowChecker checks checker dispatch at every
// shape: only the rows carrying a checker are checked, each at exactly
// the (layer, position) sites, in the order, its serial run would visit.
func TestBatchStepPerRowChecker(t *testing.T) {
	m := MustBuild(testSpec(FalconS))
	maxRows := shardRows[len(shardRows)-1]
	want := make([][][]float32, maxRows)
	wantCalls := make([][]hookKey, maxRows)
	for i := range want {
		ref := &recordingChecker{}
		st := shardState(m, i)
		m.SetChecker(ref)
		want[i] = shardSerial(st, i)
		m.SetChecker(nil)
		wantCalls[i] = ref.calls
	}

	forShardShapes(t, m, func(t *testing.T, n int) {
		// Even rows carry a checker each; odd rows none.
		checkers := make([]*recordingChecker, n)
		rows := make([]*DecodeRow, n)
		for i := range rows {
			rows[i] = &DecodeRow{St: shardState(m, i), Logits: make([]float32, m.Cfg.Vocab)}
			if i%2 == 0 {
				checkers[i] = &recordingChecker{}
				rows[i].Checker = checkers[i]
			}
		}
		shardBatch(t, m, rows, want)
		for i, got := range checkers {
			if got == nil {
				continue
			}
			if len(got.calls) != len(wantCalls[i]) {
				t.Fatalf("row %d saw %d checks, serial saw %d", i, len(got.calls), len(wantCalls[i]))
			}
			for c := range got.calls {
				if got.calls[c] != wantCalls[i][c] {
					t.Fatalf("row %d check %d: batch %+v serial %+v", i, c, got.calls[c], wantCalls[i][c])
				}
			}
		}
	})
}

// TestBatchStepIgnoresModelHooks: hooks registered on the model itself
// must not fire during Batch.Step — per-row contexts are the only
// observation channel, so a scheduler cannot accidentally leak one
// trial's instrumentation into every row.
func TestBatchStepIgnoresModelHooks(t *testing.T) {
	spec := testSpec(QwenS)
	m := MustBuild(spec)
	vocab := spec.Config.Vocab
	st := m.NewState()
	st.Prefill(promptOf(4, vocab))
	want := serialDecode(st, []int{5})

	b0 := m.NewState()
	b0.Prefill(promptOf(4, vocab))
	fired := false
	m.AddHook(func(ref LayerRef, pos int, out []float32) { fired = true })
	defer m.ClearHooks()
	rows := []*DecodeRow{{St: b0, Tok: 5, Logits: make([]float32, vocab)}}
	m.NewBatch(1).Step(rows)
	if fired {
		t.Fatal("model-level hook fired during Batch.Step")
	}
	for j := range want[0] {
		if rows[0].Logits[j] != want[0][j] {
			t.Fatal("batch output diverges from serial")
		}
	}
}

// TestBatchStepGuards covers the contract panics: over-capacity batches,
// context overflow, wrong logits buffer, and a state bound to a foreign
// model.
func TestBatchStepGuards(t *testing.T) {
	spec := testSpec(QwenS)
	m := MustBuild(spec)
	vocab := spec.Config.Vocab
	mkRow := func() *DecodeRow {
		st := m.NewState()
		st.Prefill(promptOf(2, vocab))
		return &DecodeRow{St: st, Tok: 1, Logits: make([]float32, vocab)}
	}
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}

	expectPanic("capacity", func() {
		m.NewBatch(1).Step([]*DecodeRow{mkRow(), mkRow()})
	})
	expectPanic("overflow", func() {
		r := mkRow()
		r.St.Pos = spec.Config.MaxSeq
		m.NewBatch(1).Step([]*DecodeRow{r})
	})
	expectPanic("logits-len", func() {
		r := mkRow()
		r.Logits = r.Logits[:vocab-1]
		m.NewBatch(1).Step([]*DecodeRow{r})
	})
	expectPanic("foreign-state", func() {
		other := MustBuild(testSpec(QwenS))
		r := mkRow()
		r.St = other.NewState()
		r.St.Prefill([]int{1})
		m.NewBatch(1).Step([]*DecodeRow{r})
	})
	expectPanic("zero-capacity", func() { m.NewBatch(0) })

	// Empty batch is a no-op, not a panic.
	m.NewBatch(1).Step(nil)

	// Out-of-range tokens clamp to 0, as DecodeStep does.
	st := m.NewState()
	st.Prefill(promptOf(2, vocab))
	want := append([]float32(nil), st.DecodeStep(vocab+5)...)
	r := mkRow()
	r.Tok = vocab + 5
	m.NewBatch(1).Step([]*DecodeRow{r})
	for j := range want {
		if r.Logits[j] != want[j] {
			t.Fatal(fmt.Sprintf("clamped token logit %d diverges", j))
		}
	}
}

// weightChecker counts the rows it checked by whether it was handed the
// weight they read: [0] without, [1] with.
type weightChecker struct{ handed [2]atomic.Int64 }

func (c *weightChecker) CheckLinear(ref LayerRef, w Weight, pos []int, in, out []float32) {
	i := 0
	if w != nil {
		i = 1
	}
	c.handed[i].Add(int64(len(pos)))
}

// TestCheckerHandedWeightOnlyWhenHooked: a checker is handed the weight a
// run of rows read, to recompute a flagged row through, exactly when a
// hook touched the rows — otherwise a recompute would reproduce them: in
// a decode batch a hooked row's checker gets it on every layer and an
// unhooked row's on none, and so in a prefill under a model hook and
// without one.
func TestCheckerHandedWeightOnlyWhenHooked(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	noop := func(LayerRef, int, []float32) {}
	want := func(what string, c *weightChecker, hooked bool) {
		t.Helper()
		with, without := c.handed[1].Load(), c.handed[0].Load()
		if hooked && (with == 0 || without != 0) || !hooked && (with != 0 || without == 0) {
			t.Fatalf("%s: %d rows checked with the weight, %d without", what, with, without)
		}
	}
	hooked, plain := &weightChecker{}, &weightChecker{}
	m.NewBatch(2).Step([]*DecodeRow{
		{St: m.NewState(), Tok: 3, Observers: Observers{Hooks: []Hook{noop}, Checker: hooked}, Logits: make([]float32, m.Cfg.Vocab)},
		{St: m.NewState(), Tok: 4, Observers: Observers{Checker: plain}, Logits: make([]float32, m.Cfg.Vocab)},
	})
	want("hooked decode row", hooked, true)
	want("unhooked decode row", plain, false)
	for _, hook := range []bool{false, true} {
		c := &weightChecker{}
		m.SetChecker(c)
		if hook {
			m.AddHook(noop)
		}
		m.NewState().Prefill(promptOf(m.Cfg.MaxSeq, m.Cfg.Vocab))
		m.SetChecker(nil)
		if hook {
			m.PopHook()
		}
		want(fmt.Sprintf("prefill, model hook %v", hook), c, hook)
	}
}
