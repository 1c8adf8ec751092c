package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// onBaselineInstance returns an ExtraHook factory whose first
// installation — the baseline's, made before any trial arms — calls
// at(i) as instance i's inference begins: at the first hooked output of
// position 0, whose layer every later instance's inference opens with
// too. Every later installation, a trial's, is inert. Neither changes a
// value.
func onBaselineInstance(at func(i int)) func() model.Hook {
	var installs atomic.Int32
	return func() model.Hook {
		if installs.Add(1) > 1 {
			return func(model.LayerRef, int, []float32) {}
		}
		var first model.LayerRef
		inst := -1
		return func(ref model.LayerRef, step int, _ []float32) {
			if step != 0 || (inst >= 0 && ref != first) {
				return
			}
			if inst < 0 {
				first = ref
			}
			inst++
			at(inst)
		}
	}
}

// TestTrialsOverlapBaseline: the pool runs an instance's trials as soon
// as that instance's baseline exists. The baseline is held at the start
// of instance 1 until a trial of instance 0 has reached the collector; a
// runner that evaluated the whole baseline first would wait out the
// timeout instead. The trials are still the seed path's.
func TestTrialsOverlapBaseline(t *testing.T) {
	c := Campaign{
		Model:   goldenModel(t, model.QwenS, false),
		Suite:   tasks.NewSelfRefSuite("overlap", 13, 3, 16, 6, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Comp2Bit,
		Trials:  12,
		Seed:    9,
		Workers: 1,
	}
	n := len(c.Suite.Instances)
	inst0 := make(chan struct{})
	var once sync.Once
	var timedOut atomic.Bool
	c.ExtraHook = onBaselineInstance(func(i int) {
		if i != 1 {
			return
		}
		select {
		case <-inst0:
		case <-time.After(10 * time.Second):
			timedOut.Store(true)
		}
	})
	res := mustRun(t, c, WithSpanObserver(func(index int, _ []trace.Span, _ time.Duration) {
		if index%n == 0 {
			once.Do(func() { close(inst0) })
		}
	}))
	if timedOut.Load() {
		t.Fatal("no trial of instance 0 finished while the baseline was held at instance 1")
	}
	if want := mustRun(t, seedPath(c)); !reflect.DeepEqual(res.Trials, want.Trials) {
		t.Fatal("trials run beside the baseline differ from the seed path's")
	}
}

// TestPipelinedBaselineStream: whatever the campaign's shape, the stream
// opens with BaselineReady, ahead of every TrialDone and Progress, though
// trials now run while the baseline is evaluated; and the trials are the
// seed path's.
func TestPipelinedBaselineStream(t *testing.T) {
	suite := tasks.NewSelfRefSuite("pipelined", 29, 4, 16, 7, []metrics.Kind{metrics.KindBLEU})
	mcSuite, err := tasks.NewMCSuite("arc", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := func(s *tasks.Suite, fault faults.Model) Campaign {
		return Campaign{
			Model: goldenModel(t, model.QwenS, false), Suite: s, Fault: fault,
			Trials: 24, Seed: 31, Workers: 2,
		}
	}
	serial := base(suite, faults.Comp2Bit)
	width8 := serial
	width8.BatchDecode = 8
	mem := base(suite, faults.Mem2Bit)
	mem.ABFT = &ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true}
	cases := []struct {
		name string
		c    Campaign
		opts []RunnerOption
	}{
		{"serial", serial, nil},
		{"width8", width8, nil},
		{"mc", base(mcSuite, faults.Comp2Bit), nil},
		{"mem-abft-all", mem, nil},
		{"traced", serial, []RunnerOption{WithTrace(1, nil)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var final CampaignDone
			events := 0
			for ev := range NewRunner(tc.c, tc.opts...).Stream(context.Background()) {
				events++
				switch e := ev.(type) {
				case BaselineReady:
					if events != 1 {
						t.Fatalf("BaselineReady is event %d, want the first", events)
					}
				case TrialDone, Progress:
					if events == 1 {
						t.Fatalf("%T precedes BaselineReady", e)
					}
				case CampaignDone:
					final = e
				}
			}
			if final.Err != nil {
				t.Fatal(final.Err)
			}
			want := mustRun(t, seedPath(tc.c))
			if !reflect.DeepEqual(final.Result.Trials, want.Trials) {
				t.Fatal("trials differ from the seed path's")
			}
		})
	}
}

// TestCancelDuringBaseline: a run cancelled while its baseline is still
// being evaluated — held at the start of instance 2, after the pool has
// finished every trial of instances 0 and 1 — returns context.Canceled
// promptly, leaves no goroutine behind, and checkpoints exactly those
// trials: not a prefix of the indices, but the instance-grouped set the
// pool ran. Resuming from it gives the uninterrupted Result.
func TestCancelDuringBaseline(t *testing.T) {
	c := Campaign{
		Model:   goldenModel(t, model.QwenS, false),
		Suite:   tasks.NewSelfRefSuite("cancel-baseline", 17, 4, 16, 6, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Comp2Bit,
		Trials:  16,
		Seed:    13,
		Workers: 2,
	}
	n := len(c.Suite.Instances)
	// ExtraHook presence is part of the fingerprint: every run has one.
	c.ExtraHook = onBaselineInstance(func(int) {})
	ref := mustRun(t, c)

	var early []int
	for i := 0; i < c.Trials; i++ {
		if i%n < 2 {
			early = append(early, i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The baseline is held until cancel has returned, not merely until
	// ctx.Done closes: a context closes its own Done before it cancels
	// the runner's context derived from it.
	blocked, cancelled := make(chan struct{}), make(chan struct{})
	gated := c
	gated.ExtraHook = onBaselineInstance(func(i int) {
		if i != 2 {
			return
		}
		close(blocked)
		select {
		case <-cancelled:
		case <-time.After(10 * time.Second):
		}
	})
	ran := 0
	var cancelAt time.Time
	spans := WithSpanObserver(func(index int, _ []trace.Span, _ time.Duration) {
		if ran++; ran == len(early) {
			select {
			case <-blocked:
			case <-time.After(10 * time.Second):
			}
			cancelAt = time.Now()
			cancel()
			close(cancelled)
		}
	})

	goroutines := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	res, err := NewRunner(gated, WithCheckpoint(path), WithCheckpointEvery(1), spans).Run(ctx)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("Run = %v, %v; want nil, context.Canceled", res, err)
	}
	if cancelAt.IsZero() {
		t.Fatal("the run ended before it was cancelled")
	}
	if d := time.Since(cancelAt); d > 5*time.Second {
		t.Fatalf("Run returned %v after the cancel", d)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Fatalf("%d goroutines after the cancelled run, %d before", g, goroutines)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck.Indices, early) {
		t.Fatalf("checkpoint holds trials %v, want %v", ck.Indices, early)
	}
	for i, idx := range ck.Indices {
		if !reflect.DeepEqual(ck.Trials[i], ref.Trials[idx]) {
			t.Fatalf("checkpointed trial %d differs from the uninterrupted run's", idx)
		}
	}
	res, err = NewRunner(c).Resume(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)
}
