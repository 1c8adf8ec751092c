package model

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
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

func (l *obsLog) CheckLinear(ref LayerRef, w Weight, pos []int, in, out []float32) {
	n := len(out) / len(pos)
	for i, p := range pos {
		record(&l.checks)(ref, p, out[i*n:(i+1)*n])
	}
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
// vector) every hook, attention hook and checker is shown — a prefill
// with hooks, whose pass runs as one shard, a prefill without, whose
// pass runs in shards, and the decode step.
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
			t.Run("sharded", func(t *testing.T) { shardedPrefillCase(t, tc.spec) })
			t.Run("step", func(t *testing.T) { stackedStepCase(t, tc.spec) })
		})
	}
}

// stackedPrefillCase: Prefill of n positions under the state's hooks,
// attention hooks (one of them mutating) and checker, against the same
// prompt fed through DecodeStep token by token. Hooks keep the pass one
// shard at every thread count.
func stackedPrefillCase(t *testing.T, spec Spec) {
	run := func(n, threads int, sequential bool) ([]float32, *State, *obsLog) {
		m := MustBuild(spec)
		m.SetThreads(threads)
		m.SetSequentialPrefill(sequential)
		log := &obsLog{}
		st := m.NewState()
		st.Observers = Observers{
			Hooks:     []Hook{record(&log.hooks)},
			AttnHooks: []Hook{attnFault(n / 2), record(&log.attn)},
			Checker:   log,
		}
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

// sumChecker is a stand-in for an all-layer correct-or-skip ABFT checker
// that, like the real one, may be called on distinct rows at once: it
// verifies every block linear output against the clean weights' column
// checksums, recomputes a flagged row through the weight it was handed,
// keeps the recomputation if that verifies and zeroes the row if not (at
// once when it was handed none: no hook touched the row), and logs each
// flag with the row it left.
type sumChecker struct {
	sums   map[LayerRef]tensor.Checksums
	checks atomic.Int64

	mu    sync.Mutex
	flags []obsCall
}

func newSumChecker(m *Model) *sumChecker {
	c := &sumChecker{sums: map[LayerRef]tensor.Checksums{}}
	for _, li := range m.LinearLayers() {
		c.sums[li.Ref] = tensor.NewChecksums(li.Weight.(*Dense).T)
	}
	return c
}

func (c *sumChecker) CheckLinear(ref LayerRef, w Weight, pos []int, in, out []float32) {
	k, n := len(in)/len(pos), len(out)/len(pos)
	for i, p := range pos {
		c.checkRow(ref, w, p, in[i*k:(i+1)*k], out[i*n:(i+1)*n])
	}
}

func (c *sumChecker) checkRow(ref LayerRef, w Weight, pos int, in, out []float32) {
	cs, ok := c.sums[ref]
	if !ok {
		return
	}
	c.checks.Add(1)
	tol := 4 * math.Sqrt(float64(len(in))) / (1 << 24)
	if ok, _, _ := cs.CheckRow(in, out, tol); ok {
		return
	}
	fixed := make([]float32, len(out))
	if w != nil {
		w.Forward(fixed, in)
		if ok, _, _ := cs.CheckRow(in, fixed, tol); !ok {
			clear(fixed)
		}
	}
	copy(out, fixed)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flags = append(c.flags, obsCall{ref, pos, slices.Clone(out)})
}

// sameChecks compares two checkers' counts, and their flags as a multiset:
// each position's flags in its layers' order.
func (c *sumChecker) sameChecks(want *sumChecker) error {
	if got, want := c.checks.Load(), want.checks.Load(); got != want {
		return fmt.Errorf("%d checks, per-token reference made %d", got, want)
	}
	byPos := func(calls []obsCall) []obsCall {
		return (&obsLog{checks: calls}).byPosition().checks
	}
	return sameCalls("flag", byPos(c.flags), byPos(want.flags))
}

// shardedPrefillCase: Prefill of n positions under a strike and a
// correcting checker and no hooks, against the same prompt fed through
// DecodeStep token by token — on a fresh state, and on a depth fork of a
// clean prefix whose prompt matches the prefix's for its first half, so
// the pass splits into a run entering at the fork's sublayer and one
// entering at the embedding. Both runs of a 120-row prompt, and the whole
// of every prompt here on a fresh state, shard at threads > 1.
func shardedPrefillCase(t *testing.T, spec Spec) {
	const from = 1 // the depth fork skips block 0's attention
	clean := MustBuild(spec)
	vocab := spec.Config.Vocab
	snap := depthPrefix(clean, 0, promptOf(120, vocab), nil)
	strike := &Strike{Ref: LayerRef{1, KindQ, -1}, W: clean.Blocks[1].Wq.Struck(1, 2, []int{13, 14})}
	run := func(n, threads int, sequential, fork bool) ([]float32, *State, *sumChecker) {
		m := MustBuild(spec)
		m.SetThreads(threads)
		m.SetSequentialPrefill(sequential)
		c := newSumChecker(clean)
		prompt := promptOf(n, vocab)
		var st *State
		if fork {
			st = snap.ForkDepth(m, nil, 0, from)
			prompt[n/2] = (prompt[n/2] + 1) % vocab
		} else {
			st = m.NewState()
			if m.Cfg.IsMoE() {
				st.EnableExpertTrace()
			}
		}
		st.Strike, st.Checker = strike, c
		return slices.Clone(st.Prefill(prompt)), st, c
	}
	for _, fork := range []bool{false, true} {
		for _, n := range []int{33, 61, 120} {
			wantLogits, wantSt, wantC := run(n, 1, true, fork)
			if len(wantC.flags) == 0 {
				t.Fatalf("fork=%v n=%d: the strike flagged no check", fork, n)
			}
			for _, threads := range []int{1, 2, 3} {
				name := fmt.Sprintf("fork=%v n=%d threads=%d", fork, n, threads)
				gotLogits, gotSt, gotC := run(n, threads, false, fork)
				sameBits(t, name+": logits", gotLogits, wantLogits)
				if err := statesEqual(wantSt, gotSt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := gotC.sameChecks(wantC); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fork && gotSt.DepthMatched() != n/2 {
					t.Fatalf("%s: %d positions matched, want %d", name, gotSt.DepthMatched(), n/2)
				}
				// The pass really shards: a fresh state's rows are one run.
				rows := make([]stackRow, n)
				for i := range rows {
					rows[i].st = gotSt
				}
				p := pass{m: gotSt.m, rows: rows}
				if got, want := p.shards(0, n), max(1, min(threads, n/minShardRows)); !fork && got != want {
					t.Fatalf("%s: %d shards, want %d", name, got, want)
				}
			}
		}
	}
}

// stackedStepCase: Batch.Step over rows at ragged positions, each under
// observers of its own (every row's attention hook mutates at a position
// of its own), against each row decoding alone through DecodeStep under
// the same observers.
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
		wantSts[i].Observers = Observers{
			Hooks:     []Hook{record(&log.hooks)},
			AttnHooks: []Hook{fault(i), record(&log.attn)},
			Checker:   log,
		}
		wantLogits[i] = shardSerial(wantSts[i], i)
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
					rows[i] = &DecodeRow{St: shardState(m, i), Logits: make([]float32, vocab)}
					rows[i].St.Observers = Observers{
						Hooks:     []Hook{record(&logs[i].hooks)},
						AttnHooks: []Hook{fault(i), record(&logs[i].attn)},
						Checker:   logs[i],
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
