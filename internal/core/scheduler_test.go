package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/tasks"
)

// batchEquivalent runs the campaign serially and through the
// continuous-batching scheduler at width n, requiring bit-identical
// baselines and trial records. This is the scheduler's contract: batching
// may change only wall-clock, never a single trial's outcome.
func batchEquivalent(t *testing.T, c Campaign, n int) {
	t.Helper()
	ctx := context.Background()

	serial := c
	serial.BatchDecode = 0
	ref, err := serial.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	batched := c
	batched.BatchDecode = n
	got, err := batched.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, got)
}

// TestBatchedGoldenEquivalence sweeps batched-vs-serial equivalence
// across architecture × fault model × ABFT configuration. The memory-
// fault and multiple-choice arms are ineligible for batching and must
// come out identical through the automatic serial fallback.
func TestBatchedGoldenEquivalence(t *testing.T) {
	suite := tasks.NewSelfRefSuite("batch-golden", 11, 4, 20, 9, []metrics.Kind{metrics.KindBLEU})
	mcSuite, err := tasks.NewMCSuite("arc", 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		moe   bool
		suite *tasks.Suite
		fault faults.Model
		abft  *ABFTConfig
	}{
		{"dense-comp1", false, suite, faults.Comp1Bit, nil},
		{"dense-comp2-abft-site", false, suite, faults.Comp2Bit, &ABFTConfig{}},
		{"dense-comp2-abft-all-correct", false, suite, faults.Comp2Bit,
			&ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true}},
		{"moe-comp2", true, suite, faults.Comp2Bit, nil},
		{"moe-comp1-abft-site", true, suite, faults.Comp1Bit, &ABFTConfig{}},
		{"dense-mem2-fallback", false, suite, faults.Mem2Bit, nil},
		{"moe-mem2-abft-fallback", true, suite, faults.Mem2Bit, &ABFTConfig{}},
		{"mc-comp2-fallback", false, mcSuite, faults.Comp2Bit, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batchEquivalent(t, Campaign{
				Model:  goldenModel(t, model.QwenS, tc.moe),
				Suite:  tc.suite,
				Fault:  tc.fault,
				Trials: 12,
				Seed:   41,
				ABFT:   tc.abft,
			}, 8)
		})
	}
}

// TestBatchedShardedGoldenEquivalence runs a width-16 campaign on one
// worker whose decode steps shard over 1, 2 and 4 threads — the budget
// poolShape hands a one-worker pool is GOMAXPROCS, so the test sets it,
// whatever the machine has — and requires the width-1 Result: the same
// trials and detections, the same counts in the telemetry. The ExtraHook
// arm has every row's mitigation hook firing from concurrent shards; the
// ABFT arm has every row's checker reading the worker's one checksum
// cache. Sharding must not change the batch shape either: steps and rows
// are those of threads 1.
func TestBatchedShardedGoldenEquivalence(t *testing.T) {
	suite := tasks.NewSelfRefSuite("batch-sharded", 23, 4, 20, 9, []metrics.Kind{metrics.KindBLEU})
	// counts keeps what a snapshot counted and drops what it timed.
	counts := func(s TelemetrySnapshot) TelemetrySnapshot {
		s.ElapsedSeconds, s.TrialsPerSec = 0, 0
		s.Workers, s.PhaseBucketBounds, s.Phases = nil, nil, nil
		return s
	}
	run := func(c Campaign) (*Result, TelemetrySnapshot) {
		t.Helper()
		tel := NewTelemetry()
		res, err := NewRunner(c, WithTelemetry(tel)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, counts(tel.Snapshot())
	}
	for _, tc := range []struct {
		name  string
		hook  bool
		abft  *ABFTConfig
		fault faults.Model
	}{
		{"comp2-extrahook", true, nil, faults.Comp2Bit},
		{"comp2-abft-all-correct", false, &ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true}, faults.Comp2Bit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := Campaign{
				Model:   goldenModel(t, model.QwenS, false),
				Suite:   suite,
				Fault:   tc.fault,
				Trials:  40,
				Seed:    47,
				ABFT:    tc.abft,
				Workers: 1,
			}
			if tc.hook {
				c.ExtraHook = func() model.Hook {
					return func(model.LayerRef, int, []float32) {}
				}
			}
			ref, refCounts := run(c)

			c.BatchDecode = 16
			var shape [2]int64 // steps, rows at threads 1
			for _, threads := range []int{1, 2, 4} {
				got, gotCounts := func() (*Result, TelemetrySnapshot) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
					return run(c)
				}()
				requireSameResult(t, ref, got)

				steps, rows := gotCounts.DecodeBatchSteps, gotCounts.DecodeBatchRows
				if threads == 1 {
					shape = [2]int64{steps, rows}
				} else if shape != [2]int64{steps, rows} {
					t.Fatalf("threads %d: %d steps carrying %d rows, threads 1 had %v", threads, steps, rows, shape)
				}
				if rows != refCounts.DecodeBatchRows || steps >= refCounts.DecodeBatchSteps {
					t.Fatalf("threads %d: %d steps carrying %d rows; width 1 took %d steps for %d rows",
						threads, steps, rows, refCounts.DecodeBatchSteps, refCounts.DecodeBatchRows)
				}
				// Everything else the telemetry counted is the width-1 run's.
				gotCounts.DecodeBatchSteps, gotCounts.BatchOccupancy = refCounts.DecodeBatchSteps, refCounts.BatchOccupancy
				if !reflect.DeepEqual(gotCounts, refCounts) {
					t.Fatalf("threads %d: telemetry counts differ from width 1:\n got %+v\nwant %+v", threads, gotCounts, refCounts)
				}
			}
		})
	}
}

// TestBatchedFirstTokenFinish covers trials that finish before a single
// decode step runs: a zero-token budget retires at admission (never
// occupying a batch row), and a one-token budget retires on the first
// stacked step. Both must match the serial path exactly.
func TestBatchedFirstTokenFinish(t *testing.T) {
	suite := tasks.NewSelfRefSuite("batch-first", 13, 3, 16, 6, []metrics.Kind{metrics.KindBLEU})
	suite.Instances[0].MaxNew = 0
	suite.Instances[1].MaxNew = 1
	batchEquivalent(t, Campaign{
		Model:  goldenModel(t, model.QwenS, false),
		Suite:  suite,
		Fault:  faults.Comp2Bit,
		Trials: 9,
		Seed:   23,
	}, 4)
}

// TestBatchedMitigationSkipMidBatch forces the ABFT tolerance below the
// kernel's accumulation noise under the correct-skip policy, so rows are
// flagged and zeroed on nearly every protected check mid-batch. The
// mitigated (zeroed) activations feed subsequent stacked steps, and
// every trial must still be bit-identical to its serial run.
func TestBatchedMitigationSkipMidBatch(t *testing.T) {
	suite := tasks.NewSelfRefSuite("batch-skip", 17, 3, 16, 7, []metrics.Kind{metrics.KindBLEU})
	batchEquivalent(t, Campaign{
		Model:  goldenModel(t, model.QwenS, false),
		Suite:  suite,
		Fault:  faults.Comp2Bit,
		Trials: 8,
		Seed:   29,
		ABFT:   &ABFTConfig{Tol: 1e-12, Policy: mitigate.PolicyCorrectOrSkip},
	}, 4)
}

// TestBatchedRaggedRetirement drains a batch down to a single in-flight
// row: instances with very different token budgets retire at very
// different steps, and with fewer trials than the batch width there is
// nothing left to admit. Also pins the occupancy telemetry: steps carry
// between 1 and BatchDecode rows.
func TestBatchedRaggedRetirement(t *testing.T) {
	suite := tasks.NewSelfRefSuite("batch-ragged", 19, 5, 14, 4, []metrics.Kind{metrics.KindBLEU})
	for i := range suite.Instances {
		suite.Instances[i].MaxNew = 1 + 5*i // 1, 6, 11, 16, 21
	}
	c := Campaign{
		Model:  goldenModel(t, model.QwenS, false),
		Suite:  suite,
		Fault:  faults.Comp2Bit,
		Trials: 5,
		Seed:   37,
	}
	serial := c
	ref, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	batched := c
	batched.BatchDecode = 8
	tel := NewTelemetry()
	got, err := NewRunner(batched, WithTelemetry(tel)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, got)

	s := tel.Snapshot()
	if s.DecodeBatchSteps == 0 {
		t.Fatal("batched campaign recorded no stacked decode steps")
	}
	if s.BatchOccupancy < 1 || s.BatchOccupancy > 8 {
		t.Fatalf("batch occupancy %v outside [1, 8]", s.BatchOccupancy)
	}
	if s.DecodeBatchRows < s.DecodeBatchSteps {
		t.Fatalf("batch rows %d < steps %d", s.DecodeBatchRows, s.DecodeBatchSteps)
	}
	// A default campaign is the same loop at width 1: every step carries
	// exactly one row.
	tel2 := NewTelemetry()
	if _, err := NewRunner(serial, WithTelemetry(tel2)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s2 := tel2.Snapshot(); s2.DecodeBatchSteps == 0 || s2.BatchOccupancy != 1 {
		t.Fatalf("width-1 campaign: steps %d occupancy %v, want >0 and exactly 1", s2.DecodeBatchSteps, s2.BatchOccupancy)
	}
}

// TestBatchedInterruptThenResume interrupts a batched campaign with a
// partially drained batch in flight, then resumes from the checkpoint at
// a different batch width: BatchDecode is excluded from the fingerprint
// (batching is observationally inert, like tracing), so the merged
// Result must be bit-identical to an uninterrupted serial run.
//
// The gating mirrors TestRunnerInterruptThenResume: ExtraHook install #1
// is the baseline and installs #2..#5 the first batch of trials, which
// run free; later admissions block at their first layer output until the
// consumer has cancelled, pinning "abandoned in-flight trials are simply
// re-executed on resume" deterministically.
func TestBatchedInterruptThenResume(t *testing.T) {
	c := Campaign{
		Model:   goldenModel(t, model.QwenS, false),
		Suite:   tasks.NewSelfRefSuite("batch-intr", 31, 3, 16, 7, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Comp2Bit,
		Trials:  24,
		Seed:    43,
		Workers: 1,
	}
	c.ExtraHook = func() model.Hook {
		return func(model.LayerRef, int, []float32) {}
	}
	ref, err := NewRunner(c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	var installs atomic.Int32
	gated := c
	gated.BatchDecode = 4
	gated.ExtraHook = func() model.Hook {
		wait := installs.Add(1) > 5
		return func(model.LayerRef, int, []float32) {
			if wait {
				wait = false
				<-release
			}
		}
	}

	path := filepath.Join(t.TempDir(), "batch.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(gated, WithCheckpoint(path), WithCheckpointEvery(1))

	var final CampaignDone
	trials := 0
	for ev := range r.Stream(ctx) {
		switch e := ev.(type) {
		case TrialDone:
			trials++
			if trials == 1 {
				cancel()
				close(release)
			}
		case CampaignDone:
			final = e
		}
	}
	if !errors.Is(final.Err, context.Canceled) {
		t.Fatalf("interrupted stream err = %v, want context.Canceled", final.Err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done() < 1 || ck.Done() >= c.Trials {
		t.Fatalf("checkpoint holds %d trials, want a partial count", ck.Done())
	}

	// Resume at a different batch width than the interrupted run used.
	resumed := c
	resumed.BatchDecode = 8
	res, err := NewRunner(resumed).Resume(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, res)
}

// TestBatchEligible pins which campaigns ride decode-loop rows and which
// fall back to whole-model trials.
func TestBatchEligible(t *testing.T) {
	gen1 := gen.Settings{NumBeams: 1}
	genSuite := tasks.NewSelfRefSuite("elig-gen", 3, 2, 12, 4, []metrics.Kind{metrics.KindBLEU})
	mcSuite, err := tasks.NewMCSuite("arc", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := Campaign{Suite: genSuite, Fault: faults.Comp2Bit, BatchDecode: 8}
	if !c.batchEligible(gen1) {
		t.Fatal("generative computational greedy campaign must be batch-eligible")
	}
	if !(Campaign{Suite: genSuite, Fault: faults.Comp2Bit, BatchDecode: 1}).batchEligible(gen1) ||
		!(Campaign{Suite: genSuite, Fault: faults.Comp2Bit}).batchEligible(gen1) {
		t.Fatal("BatchDecode <= 1 is the same loop at width 1, not a serial path")
	}
	if (Campaign{Suite: genSuite, Fault: faults.Mem2Bit, BatchDecode: 8}).batchEligible(gen1) {
		t.Fatal("memory faults must fall back to serial")
	}
	if (Campaign{Suite: mcSuite, Fault: faults.Comp2Bit, BatchDecode: 8}).batchEligible(gen1) {
		t.Fatal("multiple-choice must fall back to serial")
	}
	if c.batchEligible(gen.Settings{NumBeams: 3}) {
		t.Fatal("beam search must fall back to serial")
	}
	noReuse := c
	noReuse.noPrefixReuse = true
	if noReuse.batchEligible(gen1) {
		t.Fatal("seed-path campaigns must fall back to serial")
	}
}

// TestPoolShape pins the worker/thread split against the in-flight
// shape: batched workers carry up to batch trials each, so the pool is
// capped by ceil(pending/batch) and the freed cores flow back into each
// remaining worker's thread share — which its decode steps shard their
// rows over ("batch-one-worker-two-procs" is the benchmark's
// campaign_batched on the two-core reference machine).
func TestPoolShape(t *testing.T) {
	cases := []struct {
		name                             string
		pending, requested, batch, procs int
		workers, threads                 int
	}{
		{"serial-full-machine", 100, 0, 1, 8, 8, 1},
		{"serial-few-pending", 4, 0, 1, 8, 4, 2},
		{"serial-requested", 100, 2, 1, 8, 2, 4},
		{"batch-caps-workers", 100, 0, 16, 8, 7, 1},
		{"batch-one-worker-enough", 8, 0, 8, 8, 1, 8},
		{"batch-reclaims-threads", 16, 0, 8, 8, 2, 4},
		{"batch-respects-request", 16, 1, 8, 8, 1, 8},
		{"batch-one-worker-two-procs", 480, 1, 16, 2, 1, 2},
		{"batch-more-requested-than-needed", 8, 4, 8, 8, 1, 8},
		{"single-core", 100, 0, 8, 1, 1, 1},
		{"pending-below-everything", 1, 4, 8, 8, 1, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, th := poolShape(tc.pending, tc.requested, tc.batch, tc.procs)
			if w != tc.workers || th != tc.threads {
				t.Fatalf("poolShape(%d, %d, %d, %d) = (%d, %d), want (%d, %d)",
					tc.pending, tc.requested, tc.batch, tc.procs, w, th, tc.workers, tc.threads)
			}
		})
	}
}

// sharesMap reports whether two maps are the same map, not merely equal.
func sharesMap(a, b map[metrics.Kind]float64) bool {
	return a != nil && reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestTrialsShareBaselineScores: a trial whose scores equal its instance's
// baseline holds the baseline's map rather than its own copy (most trials
// are masked, and a Result retains every one of them), and nothing can
// tell: the trials DeepEqual ones holding private maps, marshal to the
// same JSON and survive a gob checkpoint round-trip unchanged.
func TestTrialsShareBaselineScores(t *testing.T) {
	suite := tasks.NewSelfRefSuite("share", 4, 3, 20, 8, []metrics.Kind{metrics.KindBLEU, metrics.KindChrF})
	for _, width := range []int{0, 4} {
		c := Campaign{Model: goldenModel(t, model.QwenS, false), Suite: suite, Fault: faults.Comp2Bit, Trials: 48, Seed: 5, BatchDecode: width}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		private := slices.Clone(res.Trials)
		shared := 0
		for i, tr := range res.Trials {
			base := res.Baseline.Instances[tr.Instance].Metrics
			if sharesMap(tr.Metrics, base) != maps.Equal(tr.Metrics, base) {
				t.Fatalf("width %d trial %d: scores %v, baseline %v, shared %v", width, i, tr.Metrics, base, sharesMap(tr.Metrics, base))
			}
			if sharesMap(tr.Metrics, base) {
				shared++
			}
			private[i].Metrics = maps.Clone(tr.Metrics)
		}
		if shared == 0 || !reflect.DeepEqual(res.Trials, private) {
			t.Fatalf("width %d: %d of %d trials share their baseline's scores; DeepEqual private copies: %v",
				width, shared, len(res.Trials), reflect.DeepEqual(res.Trials, private))
		}
		a, errA := json.Marshal(res.Trials)
		b, errB := json.Marshal(private)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("width %d: JSON of shared and private trials differs (%v, %v)", width, errA, errB)
		}
		path := filepath.Join(t.TempDir(), "ck.gob")
		if err := (&Checkpoint{Fingerprint: c.Fingerprint(), Indices: make([]int, len(res.Trials)), Trials: res.Trials}).Save(path); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil || !reflect.DeepEqual(ck.Trials, private) {
			t.Fatalf("width %d: checkpoint round-trip changed the trials (%v)", width, err)
		}
	}
}
