package model

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// obsCall is one observer call: where it fired and a copy of the vector
// it was shown (a checker's call records the output row).
type obsCall struct {
	ref LayerRef
	pos int
	out []float32
}

// obsLog records every call to one row's (or the model's) three observer
// surfaces, in call order.
type obsLog struct {
	hooks, attn, checks []obsCall
}

// record returns a hook appending every call it sees to dst.
func record(dst *[]obsCall) Hook {
	return func(ref LayerRef, pos int, out []float32) {
		*dst = append(*dst, obsCall{ref, pos, slices.Clone(out)})
	}
}

func (l *obsLog) CheckLinear(ref LayerRef, pos int, w Weight, in, out []float32) {
	record(&l.checks)(ref, pos, out)
}

// byPosition reorders a stacked pass's layer-major call sequences into
// DecodeStep's position-major ones. The sort is stable, so each position
// keeps the layer order the stacked pass gave it.
func (l *obsLog) byPosition() *obsLog {
	sorted := func(calls []obsCall) []obsCall {
		out := slices.Clone(calls)
		slices.SortStableFunc(out, func(a, b obsCall) int { return a.pos - b.pos })
		return out
	}
	return &obsLog{hooks: sorted(l.hooks), attn: sorted(l.attn), checks: sorted(l.checks)}
}

func sameCalls(surface string, got, want []obsCall) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d calls, per-token reference made %d", surface, len(got), len(want))
	}
	for i := range want {
		if got[i].ref != want[i].ref || got[i].pos != want[i].pos {
			return fmt.Errorf("%s call %d: (%+v, %d), reference (%+v, %d)",
				surface, i, got[i].ref, got[i].pos, want[i].ref, want[i].pos)
		}
		if !slices.Equal(got[i].out, want[i].out) {
			return fmt.Errorf("%s call %d (%+v, %d): vector differs from the reference", surface, i, got[i].ref, got[i].pos)
		}
	}
	return nil
}

func (l *obsLog) sameAs(want *obsLog) error {
	if err := sameCalls("hook", l.hooks, want.hooks); err != nil {
		return err
	}
	if err := sameCalls("attention hook", l.attn, want.attn); err != nil {
		return err
	}
	return sameCalls("checker", l.checks, want.checks)
}

// attnFault scales one neuron of block 1's post-attention activation at
// pos, so the attention-hook surface is pinned as a mutating one.
func attnFault(pos int) Hook {
	return func(ref LayerRef, p int, out []float32) {
		if ref.Block == 1 && p == pos {
			out[2] *= 4
		}
	}
}

// TestStackedForwardMatchesDecodeStep pins the one stacked forward pass,
// through both of its callers, to per-token DecodeStep: logits, written
// KV rows and expert traces, and the exact sequence of (layer, position,
// vector) every hook, attention hook and checker is shown.
func TestStackedForwardMatchesDecodeStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"dense", testSpec(QwenS)},
		{"moe", moeTestSpec(LlamaS)},
	} {
		tc.spec.Config.MaxSeq = 160
		t.Run(tc.name, func(t *testing.T) {
			t.Run("prefill", func(t *testing.T) { stackedPrefillCase(t, tc.spec) })
			t.Run("step", func(t *testing.T) { stackedStepCase(t, tc.spec) })
		})
	}
}

// stackedPrefillCase: Prefill of n positions under the model's hooks,
// attention hooks (one of them mutating) and checker, against the same
// prompt fed through DecodeStep token by token. 120 rows is past the
// GEMM's fork threshold, so threads > 1 splits every matmul.
func stackedPrefillCase(t *testing.T, spec Spec) {
	run := func(n, threads int, sequential bool) ([]float32, *State, *obsLog) {
		m := MustBuild(spec)
		m.SetThreads(threads)
		m.SetSequentialPrefill(sequential)
		log := &obsLog{}
		m.AddHook(record(&log.hooks))
		m.AddAttnHook(attnFault(n / 2))
		m.AddAttnHook(record(&log.attn))
		m.SetChecker(log)
		st := m.NewState()
		st.EnableExpertTrace()
		logits := slices.Clone(st.Prefill(promptOf(n, spec.Config.Vocab)))
		return logits, st, log
	}
	for _, n := range []int{2, 7, 120} {
		wantLogits, wantSt, wantLog := run(n, 1, true)
		if got, want := len(wantLog.attn), spec.Config.NBlocks*n; got != want {
			t.Fatalf("n=%d: reference fired %d attention hooks, want %d", n, got, want)
		}
		for _, threads := range []int{1, 3} {
			gotLogits, gotSt, gotLog := run(n, threads, false)
			name := fmt.Sprintf("n=%d threads=%d", n, threads)
			if !slices.Equal(gotLogits, wantLogits) {
				t.Fatalf("%s: logits differ from the per-token reference", name)
			}
			if err := statesEqual(wantSt, gotSt); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := gotLog.byPosition().sameAs(wantLog); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// stackedStepCase: Batch.Step over rows at ragged positions, each under
// observers of its own (every row's attention hook mutates at a position
// of its own), against each row decoding alone through DecodeStep under
// the same observers registered on the model.
func stackedStepCase(t *testing.T, spec Spec) {
	const maxRows = 16
	m := MustBuild(spec)
	vocab := spec.Config.Vocab
	fault := func(i int) Hook { return attnFault(len(shardPrompt(i, vocab)) + 1 + i%3) }

	wantLogits := make([][][]float32, maxRows)
	wantSts := make([]*State, maxRows)
	wantLogs := make([]*obsLog, maxRows)
	for i := range wantLogits {
		wantSts[i] = shardState(m, i)
		log := &obsLog{}
		m.AddHook(record(&log.hooks))
		m.AddAttnHook(fault(i))
		m.AddAttnHook(record(&log.attn))
		m.SetChecker(log)
		wantLogits[i] = shardSerial(wantSts[i], i)
		m.ClearHooks()
		m.ClearAttnHooks()
		m.SetChecker(nil)
		wantLogs[i] = log
	}

	for _, n := range []int{1, 3, maxRows} {
		for _, threads := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("rows%d/threads%d", n, threads), func(t *testing.T) {
				m.SetThreads(threads)
				logs := make([]*obsLog, n)
				rows := make([]*DecodeRow, n)
				for i := range rows {
					logs[i] = &obsLog{}
					rows[i] = &DecodeRow{
						St: shardState(m, i),
						Observers: Observers{
							Hooks:     []Hook{record(&logs[i].hooks)},
							AttnHooks: []Hook{fault(i), record(&logs[i].attn)},
							Checker:   logs[i],
						},
						Logits: make([]float32, vocab),
					}
				}
				shardBatch(t, m, rows, wantLogits)
				for i, row := range rows {
					if err := statesEqual(wantSts[i], row.St); err != nil {
						t.Fatalf("row %d state: %v", i, err)
					}
					if err := logs[i].sameAs(wantLogs[i]); err != nil {
						t.Fatalf("row %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestBatchStepDoesNotPinRows: a Batch outlives the trials it steps, so
// once a row has been stepped for the last time and its owner lets go,
// the row's State must be collectable — the promise gen.Loop.Release
// makes for caller-supplied states, kept one layer down.
func TestBatchStepDoesNotPinRows(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	b := m.NewBatch(4)
	collected := make(chan struct{})
	stepOnce := func() {
		st := m.NewState()
		st.Prefill(promptOf(3, m.Cfg.Vocab))
		runtime.SetFinalizer(st, func(*State) { close(collected) })
		b.Step([]*DecodeRow{{St: st, Tok: 1, Logits: make([]float32, m.Cfg.Vocab)}})
	}
	stepOnce()
	// Finalizers run on their own goroutine some time after the collection
	// that found the object unreachable: wait for the event, a few times.
	for range 10 {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(b)
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	runtime.KeepAlive(b)
	t.Fatal("Batch still references a row's State after the Step returned")
}
