package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tasks"
)

// requireSameResult asserts two campaign results are bit-identical:
// same baseline outputs and deep-equal trial records.
func requireSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Baseline.Instances) != len(got.Baseline.Instances) {
		t.Fatalf("baseline sizes differ: %d vs %d",
			len(want.Baseline.Instances), len(got.Baseline.Instances))
	}
	for i := range want.Baseline.Instances {
		a, b := &want.Baseline.Instances[i], &got.Baseline.Instances[i]
		if a.Text != b.Text || a.Choice != b.Choice || a.Steps != b.Steps ||
			!reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Fatalf("baseline instance %d differs:\nwant %+v\ngot  %+v", i, a, b)
		}
	}
	if len(want.Trials) != len(got.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(want.Trials), len(got.Trials))
	}
	for i := range want.Trials {
		if !reflect.DeepEqual(want.Trials[i], got.Trials[i]) {
			t.Fatalf("trial %d differs:\nwant %+v\ngot  %+v", i, want.Trials[i], got.Trials[i])
		}
	}
}

// resumeCase runs the campaign to completion for reference, then replays
// it from a checkpoint holding the first half of the trials (stored in
// reverse completion order, to exercise the index mapping) and requires
// the merged Result to be bit-identical.
func resumeCase(t *testing.T, c Campaign) {
	t.Helper()
	ctx := context.Background()
	ref, err := NewRunner(c).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	k := c.Trials / 2
	ck := &Checkpoint{Fingerprint: c.Fingerprint()}
	for i := k - 1; i >= 0; i-- {
		ck.Indices = append(ck.Indices, i)
		ck.Trials = append(ck.Trials, ref.Trials[i])
	}
	path := filepath.Join(t.TempDir(), "case.ckpt")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}

	res, err := NewRunner(c).Resume(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)

	// The final checkpoint written back must now hold every trial.
	full, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if full.Done() != c.Trials {
		t.Fatalf("final checkpoint holds %d trials, want %d", full.Done(), c.Trials)
	}
}

// TestRunnerResumeBitIdentical sweeps resume equivalence across the
// architecture (dense/MoE) × decoding (greedy/beam) × fault-model axes:
// a run resumed from a partial checkpoint must merge to the exact Result
// of an uninterrupted run.
func TestRunnerResumeBitIdentical(t *testing.T) {
	suite := tasks.NewSelfRefSuite("runner-resume", 5, 3, 18, 7, []metrics.Kind{metrics.KindBLEU})
	for _, arch := range []struct {
		name string
		moe  bool
	}{{"dense", false}, {"moe", true}} {
		for _, dec := range []struct {
			name  string
			beams int
		}{{"greedy", 1}, {"beam", 3}} {
			for _, fault := range []faults.Model{faults.Comp1Bit, faults.Comp2Bit, faults.Mem2Bit} {
				name := arch.name + "-" + dec.name + "-" + fault.String()
				t.Run(name, func(t *testing.T) {
					resumeCase(t, Campaign{
						Model:   goldenModel(t, model.QwenS, arch.moe),
						Suite:   suite,
						Fault:   fault,
						Trials:  8,
						Seed:    19,
						Workers: 2,
						Gen:     gen.Settings{NumBeams: dec.beams},
					})
				})
			}
		}
	}
}

// TestRunnerInterruptThenResume exercises the real interrupt path: the
// stream is cancelled after the second completed trial, the runner
// writes its final checkpoint on the way out, and resuming from that
// file merges to the exact uninterrupted Result.
//
// The trials of this workload run in fractions of a millisecond, so
// asserting "cancellation stopped the pool" by racing the consumer
// goroutine against free-running workers is flaky by construction.
// Instead the interrupted run installs a gating ExtraHook: the first two
// trials run free, later ones block at their first layer output until
// the consumer has cancelled — which pins the actual contract (the pool
// stops within one in-flight trial per worker) deterministically.
// ExtraHook presence is part of the campaign fingerprint, so the
// reference and resumed runs install an inert hook to keep the three
// fingerprints equal.
func TestRunnerInterruptThenResume(t *testing.T) {
	c := Campaign{
		Model:   goldenModel(t, model.QwenS, false),
		Suite:   tasks.NewSelfRefSuite("runner-intr", 7, 3, 18, 7, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Comp2Bit,
		Trials:  24,
		Seed:    5,
		Workers: 2,
	}
	c.ExtraHook = func() model.Hook {
		return func(model.LayerRef, int, []float32) {}
	}
	ref, err := NewRunner(c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Installations happen in a deterministic order: #1 is the baseline
	// evaluation, #2 and #3 are the first two trials; everything later
	// blocks until release closes.
	release := make(chan struct{})
	var installs atomic.Int32
	gated := c
	gated.ExtraHook = func() model.Hook {
		wait := installs.Add(1) > 3
		return func(model.LayerRef, int, []float32) {
			if wait {
				wait = false
				<-release
			}
		}
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(gated, WithCheckpoint(path), WithCheckpointEvery(1))

	var final CampaignDone
	sawBaseline, sawFinal, trials := false, false, 0
	for ev := range r.Stream(ctx) {
		switch e := ev.(type) {
		case BaselineReady:
			if trials > 0 {
				t.Fatal("BaselineReady must precede TrialDone")
			}
			if e.Baseline == nil {
				t.Fatal("BaselineReady carries nil baseline")
			}
			sawBaseline = true
		case TrialDone:
			trials++
			if trials == 2 {
				cancel()
				close(release)
			}
		case Progress:
			if e.Total != c.Trials || e.Done < 1 || e.Done > c.Trials {
				t.Fatalf("bad progress event %+v", e)
			}
		case CampaignDone:
			final, sawFinal = e, true
		}
	}
	if !sawBaseline || !sawFinal {
		t.Fatalf("stream missing events: baseline=%v final=%v", sawBaseline, sawFinal)
	}
	if !errors.Is(final.Err, context.Canceled) {
		t.Fatalf("interrupted stream err = %v, want context.Canceled", final.Err)
	}
	if final.Result != nil {
		t.Fatal("interrupted stream must not deliver a Result")
	}
	if trials >= c.Trials {
		t.Fatalf("cancellation did not stop the pool: %d/%d trials ran", trials, c.Trials)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done() < 2 || ck.Done() >= c.Trials {
		t.Fatalf("checkpoint holds %d trials, want partial >= 2", ck.Done())
	}

	res, err := NewRunner(c).Resume(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)
}

// TestRunnerCancellation pins the blocking-Run contract: a cancelled
// context stops the pool within one in-flight trial per worker and
// surfaces ctx.Err().
func TestRunnerCancellation(t *testing.T) {
	c := Campaign{
		Model:   goldenModel(t, model.QwenS, false),
		Suite:   tasks.NewSelfRefSuite("runner-cancel", 3, 2, 16, 6, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Comp1Bit,
		Trials:  32,
		Seed:    3,
		Workers: 2,
	}

	// Pre-cancelled context: no work at all.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run err = %v, want context.Canceled", err)
	}

	// Mid-run cancel: wait for the first completed trial, then cancel.
	// With 2 workers, at most the two in-flight trials may still finish.
	// As in TestRunnerInterruptThenResume, a gating ExtraHook keeps the
	// sub-millisecond trials from outrunning the cancelling goroutine:
	// install #1 is the baseline, #2 the first trial, and later trials
	// block until the cancel has landed.
	release := make(chan struct{})
	var installs atomic.Int32
	gated := c
	gated.ExtraHook = func() model.Hook {
		wait := installs.Add(1) > 2
		return func(model.LayerRef, int, []float32) {
			if wait {
				wait = false
				<-release
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tel := NewTelemetry()
	go func() {
		for tel.Snapshot().DoneTrials == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	res, err := NewRunner(gated, WithTelemetry(tel)).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled Run must not return a Result")
	}
	if done := tel.Snapshot().DoneTrials; done >= c.Trials {
		t.Fatalf("cancellation did not stop the pool: %d/%d trials ran", done, c.Trials)
	}
}

// TestRunnerStreamMatchesBlockingRun requires the streaming path to
// deliver the same Result as blocking Run, with a complete and ordered
// event stream: BaselineReady first, a TrialDone per trial forming a
// permutation of the indices, and a terminal CampaignDone.
func TestRunnerStreamMatchesBlockingRun(t *testing.T) {
	c := Campaign{
		Model:   goldenModel(t, model.QwenS, false),
		Suite:   tasks.NewSelfRefSuite("runner-stream", 9, 3, 18, 7, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Comp2Bit,
		Trials:  10,
		Seed:    23,
		Workers: 2,
	}
	ref, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	seen := make([]bool, c.Trials)
	var final CampaignDone
	sawFinal := false
	var lastProgress Progress
	for ev := range NewRunner(c).Stream(context.Background()) {
		switch e := ev.(type) {
		case TrialDone:
			if e.Index < 0 || e.Index >= c.Trials || seen[e.Index] {
				t.Fatalf("bad or duplicate TrialDone index %d", e.Index)
			}
			seen[e.Index] = true
			if !reflect.DeepEqual(e.Trial, ref.Trials[e.Index]) {
				t.Fatalf("streamed trial %d differs from blocking run", e.Index)
			}
		case Progress:
			lastProgress = e
		case CampaignDone:
			final, sawFinal = e, true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("no TrialDone for trial %d", i)
		}
	}
	if !sawFinal || final.Err != nil || final.Result == nil {
		t.Fatalf("bad terminal event %+v", final)
	}
	if lastProgress.Done != c.Trials || lastProgress.Total != c.Trials {
		t.Fatalf("final progress %d/%d, want %d/%d",
			lastProgress.Done, lastProgress.Total, c.Trials, c.Trials)
	}
	if lastProgress.Pct() != 100 {
		t.Fatalf("final progress pct = %f", lastProgress.Pct())
	}
	requireSameResult(t, ref, final.Result)
}

// TestRunnerTelemetry checks the registry against a completed campaign:
// counts, rates, per-worker accounting, and ExtraHook fire counting.
func TestRunnerTelemetry(t *testing.T) {
	hooked := func() model.Hook {
		return func(ref model.LayerRef, step int, out []float32) {}
	}
	c := Campaign{
		Model:     goldenModel(t, model.QwenS, false),
		Suite:     tasks.NewSelfRefSuite("runner-tel", 11, 2, 16, 6, []metrics.Kind{metrics.KindBLEU}),
		Fault:     faults.Comp2Bit,
		Trials:    6,
		Seed:      7,
		Workers:   2,
		ExtraHook: hooked,
	}
	tel := NewTelemetry()
	res, err := NewRunner(c, WithTelemetry(tel)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s := tel.Snapshot()
	if s.TotalTrials != c.Trials || s.DoneTrials != c.Trials {
		t.Fatalf("telemetry counts %d/%d, want %d/%d",
			s.DoneTrials, s.TotalTrials, c.Trials, c.Trials)
	}
	if s.TrialsPerSec <= 0 || s.ElapsedSeconds <= 0 {
		t.Fatalf("telemetry throughput not populated: %+v", s)
	}
	fired := 0
	for _, tr := range res.Trials {
		if tr.Fired {
			fired++
		}
	}
	if s.Fired != fired {
		t.Fatalf("telemetry fired = %d, result says %d", s.Fired, fired)
	}
	if want := float64(fired) / float64(c.Trials); s.FiredRate != want {
		t.Fatalf("fired rate = %f, want %f", s.FiredRate, want)
	}
	if s.Masked+s.Subtle+s.Distorted > c.Trials {
		t.Fatalf("outcome tally exceeds trials: %+v", s)
	}
	if s.HookFires == 0 {
		t.Fatal("ExtraHook fires not counted")
	}
	if len(s.Workers) != 2 {
		t.Fatalf("worker snapshots = %d, want 2", len(s.Workers))
	}
	workerTrials := 0
	for _, w := range s.Workers {
		workerTrials += w.Trials
		if w.Trials > 0 && w.BusySeconds <= 0 {
			t.Fatalf("busy worker with zero busy time: %+v", w)
		}
	}
	if workerTrials != c.Trials {
		t.Fatalf("per-worker trials sum to %d, want %d", workerTrials, c.Trials)
	}
}

// TestRunnerTelemetryHookWrapDoesNotChangeResult guards golden
// equivalence of the telemetry instrumentation: wrapping ExtraHook with
// the fire counter must not perturb the mitigation's observed values.
func TestRunnerTelemetryHookWrapDoesNotChangeResult(t *testing.T) {
	mk := func() Campaign {
		return Campaign{
			Model:  goldenModel(t, model.QwenS, false),
			Suite:  tasks.NewSelfRefSuite("runner-wrap", 13, 2, 16, 6, []metrics.Kind{metrics.KindBLEU}),
			Fault:  faults.Comp2Bit,
			Trials: 6,
			Seed:   29,
			ExtraHook: func() model.Hook {
				return func(ref model.LayerRef, step int, out []float32) {
					// Value-dependent mitigation stand-in: clamp extremes.
					for i, v := range out {
						if v > 1e3 {
							out[i] = 1e3
						}
					}
				}
			},
		}
	}
	a, err := mk().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, a, b)
}

// TestCampaignSentinelErrors pins the typed validation errors.
func TestCampaignSentinelErrors(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	suite := tasks.NewSelfRefSuite("runner-errs", 1, 2, 16, 6, []metrics.Kind{metrics.KindBLEU})
	ctx := context.Background()

	_, err := Campaign{Model: m, Suite: suite, Fault: faults.Comp1Bit}.Run(ctx)
	if !errors.Is(err, ErrNoTrials) {
		t.Fatalf("zero trials err = %v, want ErrNoTrials", err)
	}

	empty := &tasks.Suite{Name: "empty", Type: tasks.Generative}
	_, err = Campaign{Model: m, Suite: empty, Fault: faults.Comp1Bit, Trials: 2}.Run(ctx)
	if !errors.Is(err, ErrEmptySuite) {
		t.Fatalf("empty suite err = %v, want ErrEmptySuite", err)
	}

	smallCfg := m.Cfg
	smallCfg.MaxSeq = 4
	sm := model.MustBuild(model.Spec{Config: smallCfg, Family: model.QwenS, Seed: 3})
	_, err = Campaign{Model: sm, Suite: suite, Fault: faults.Comp1Bit, Trials: 2}.Run(ctx)
	if !errors.Is(err, ErrContextTooSmall) {
		t.Fatalf("small context err = %v, want ErrContextTooSmall", err)
	}
}

// TestCampaignVocabTooSmall: a suite with a prompt or option token the
// model's vocabulary does not hold is refused before any trial runs —
// generative (a prompt token) and multiple-choice (an option token).
func TestCampaignVocabTooSmall(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	vocab := m.Cfg.Vocab
	for _, suite := range []*tasks.Suite{
		{Name: "gen", Type: tasks.Generative, Instances: []tasks.Instance{
			{Prompt: []int{1, 2, 3}, MaxNew: 4},
			{Prompt: []int{1, vocab, 3}, MaxNew: 4},
		}},
		{Name: "mc", Type: tasks.MultipleChoice, Instances: []tasks.Instance{
			{Prompt: []int{1, 2, 3}, Options: [][]int{{4}, {5, vocab + 33}}},
		}},
	} {
		_, err := Campaign{Model: m, Suite: suite, Fault: faults.Comp1Bit, Trials: 2}.Run(context.Background())
		if !errors.Is(err, ErrVocabTooSmall) {
			t.Fatalf("%s: err = %v, want ErrVocabTooSmall", suite.Name, err)
		}
	}
}

// TestTrialError checks the error's locating fields and unwrapping.
func TestTrialError(t *testing.T) {
	inner := errors.New("boom")
	te := &TrialError{Index: 7, Site: faults.Site{Row: 1, Col: 2}, Err: inner}
	if !errors.Is(te, inner) {
		t.Fatal("TrialError must unwrap to the cause")
	}
	if te.Error() == "" || te.Index != 7 {
		t.Fatalf("bad TrialError %+v", te)
	}
}

// TestRunnerCheckpointWriteFailure requires a failing checkpoint write
// to abort the campaign with the write error rather than silently
// dropping persistence.
func TestRunnerCheckpointWriteFailure(t *testing.T) {
	c := Campaign{
		Model:   goldenModel(t, model.QwenS, false),
		Suite:   tasks.NewSelfRefSuite("runner-ckfail", 15, 2, 16, 6, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Comp1Bit,
		Trials:  4,
		Seed:    2,
		Workers: 1,
	}
	bad := filepath.Join(t.TempDir(), "missing-dir", "run.ckpt")
	_, err := NewRunner(c, WithCheckpoint(bad), WithCheckpointEvery(1)).Run(context.Background())
	if err == nil {
		t.Fatal("unwritable checkpoint path must fail the run")
	}
}

// TestNewWithOptions checks the functional-options constructor against
// the struct literal it must remain equivalent to.
func TestNewWithOptions(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	suite := tasks.NewSelfRefSuite("runner-opts", 17, 2, 16, 6, []metrics.Kind{metrics.KindBLEU})
	c := New(m, suite, faults.Mem2Bit, 9, 41,
		WithWorkers(3),
		WithGen(gen.Settings{NumBeams: 2}),
		WithFilter(faults.GateOnly),
		WithReasoningOnly(true),
		WithExtraHook(func() model.Hook {
			return func(ref model.LayerRef, step int, out []float32) {}
		}),
	)
	if c.Model != m || c.Suite != suite || c.Fault != faults.Mem2Bit ||
		c.Trials != 9 || c.Seed != 41 || c.Workers != 3 ||
		c.Gen.NumBeams != 2 || !c.ReasoningOnly ||
		c.Filter == nil || c.ExtraHook == nil {
		t.Fatalf("New did not apply options: %+v", c)
	}
	if c.noPrefixReuse {
		t.Fatal("production constructor must not engage seed-path knobs")
	}

	s := New(m, suite, faults.Comp1Bit, 2, 1, withSeedPath())
	if !s.noPrefixReuse || s.Model == m {
		t.Fatal("withSeedPath must pin the seed execution path on a clone")
	}
}
