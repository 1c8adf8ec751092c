package core

import (
	"context"
	"fmt"
	"reflect"
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

// seedPath pins c to the seed execution path: a deep model clone per
// worker, sequential prefill, and every trial one whole inference from
// the first prompt token — nothing forked, nothing skipped.
func seedPath(c Campaign) Campaign {
	c.Model = c.Model.Clone()
	c.Model.SetSequentialPrefill(true)
	c.noPrefixReuse = true
	c.deepClones = true
	return c
}

// fastForwardCampaign is two instances of 15 prompt tokens and up to 8
// generated ones, with enough trials to strike every generation
// iteration of both.
func fastForwardCampaign(t *testing.T, moe bool, fault faults.Model) Campaign {
	t.Helper()
	return Campaign{
		Model:   goldenModel(t, model.QwenS, moe),
		Suite:   tasks.NewSelfRefSuite("fast-forward", 17, 2, 14, 8, []metrics.Kind{metrics.KindBLEU}),
		Fault:   fault,
		Trials:  96,
		Seed:    5,
		Workers: 1,
	}
}

func mustRun(t *testing.T, c Campaign, opts ...RunnerOption) *Result {
	t.Helper()
	res, err := NewRunner(c, opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFastForwardMatchesSeedPath is the tentpole's contract. A row that
// only its fault observes starts at the strike step, on a fork of the
// baseline's finished state cut back to promptLen + GenIter; for every
// GenIter of every instance — dense and MoE (whose ExpertTrace is cut
// back with the KV rows), 1-bit and 2-bit, width 1 and 16 — the Trial
// must be the one the seed path computes by running the whole inference
// from the first prompt token: Steps, Fired, outcome, metrics,
// ExpertChanged.
func TestFastForwardMatchesSeedPath(t *testing.T) {
	for _, moe := range []bool{false, true} {
		for _, fault := range []faults.Model{faults.Comp1Bit, faults.Comp2Bit} {
			t.Run(fmt.Sprintf("moe=%v/%v", moe, fault), func(t *testing.T) {
				c := fastForwardCampaign(t, moe, fault)
				seed := mustRun(t, seedPath(c))

				struck := map[[2]int]bool{}
				fired, changed := 0, 0
				for _, tr := range seed.Trials {
					struck[[2]int{tr.Instance, tr.Site.GenIter}] = true
					if tr.Fired {
						fired++
					}
					if tr.Outcome.Changed {
						changed++
					}
				}
				for i, ib := range seed.Baseline.Instances {
					for g := range ib.Tokens {
						if !struck[[2]int{i, g}] {
							t.Fatalf("no trial strikes instance %d at iteration %d: raise Trials", i, g)
						}
					}
				}
				if fired == 0 || changed == 0 {
					t.Fatalf("%d trials fired and %d changed the output: nothing to get wrong", fired, changed)
				}

				for _, width := range []int{1, 16} {
					c.BatchDecode = width
					got := mustRun(t, c)
					for i := range seed.Trials {
						if !reflect.DeepEqual(got.Trials[i], seed.Trials[i]) {
							t.Fatalf("width %d trial %d (iteration %d) differs:\nseed   %+v\nengine %+v",
								width, i, seed.Trials[i].Site.GenIter, seed.Trials[i], got.Trials[i])
						}
					}
				}
			})
		}
	}
}

// TestFastForwardObserversSeeEveryPosition pins the rule that sends an
// observed row back to the post-prompt fork: an ExtraHook, an ABFT
// checker and a propagation probe count clean positions too, so each
// must see, past the prompt, exactly what it sees on the seed path's
// whole inference — every generated position, not just those from the
// strike on.
func TestFastForwardObserversSeeEveryPosition(t *testing.T) {
	c := fastForwardCampaign(t, false, faults.Comp2Bit)
	c.Trials = 40
	promptLen := len(c.Suite.Instances[0].Prompt)

	t.Run("extrahook", func(t *testing.T) {
		// The hook is installed for the baseline and once per trial; past
		// the prompt those inferences are the same on both paths.
		run := func(c Campaign) (*Result, int64) {
			var calls atomic.Int64
			c.ExtraHook = func() model.Hook {
				return func(_ model.LayerRef, pos int, _ []float32) {
					if pos >= promptLen {
						calls.Add(1)
					}
				}
			}
			return mustRun(t, c), calls.Load()
		}
		seed, want := run(seedPath(c))
		for _, width := range []int{1, 16} {
			c.BatchDecode = width
			got, calls := run(c)
			requireSameResult(t, seed, got)
			if calls != want {
				t.Fatalf("width %d: the hook saw %d calls past the prompt, %d on the seed path", width, calls, want)
			}
		}
	})

	// The seed path also checks the prompt's positions: once each at the
	// site layer, once per block linear under AllLayers.
	cfg := c.Model.Cfg
	for name, tc := range map[string]struct {
		abft        ABFTConfig
		perPosition int
	}{
		"abft-site": {ABFTConfig{}, 1},
		"abft-all":  {ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true}, 7 * cfg.NBlocks},
	} {
		t.Run(name, func(t *testing.T) {
			c := c
			c.ABFT = &tc.abft
			seed := mustRun(t, seedPath(c))
			for _, width := range []int{1, 16} {
				c.BatchDecode = width
				got := mustRun(t, c)
				for i, tr := range got.Trials {
					want := seed.Trials[i]
					det := *want.Detection
					det.Checks -= promptLen * tc.perPosition
					if *tr.Detection != det {
						t.Fatalf("width %d trial %d (iteration %d): detection %+v, seed path past the prompt %+v",
							width, i, tr.Site.GenIter, *tr.Detection, det)
					}
					tr.Detection, want.Detection = nil, nil
					if !reflect.DeepEqual(tr, want) {
						t.Fatalf("width %d trial %d differs:\nseed   %+v\nengine %+v", width, i, want, tr)
					}
				}
			}
		})
	}

	t.Run("traced", func(t *testing.T) {
		// The seed path's probe also samples the logit margin at the
		// prompt's positions, which have no clean reference.
		records := func(c Campaign) map[int]trace.Record {
			recs := map[int]trace.Record{}
			for _, r := range collectTraces(t, c) {
				r.Spans = nil // timings
				for len(r.LogitMargins) > 0 && r.LogitMargins[0].Pos < promptLen {
					r.LogitMargins = r.LogitMargins[1:]
				}
				recs[r.Trial] = r
			}
			return recs
		}
		want := records(seedPath(c))
		compared := 0
		for _, r := range want {
			compared += r.Compared
		}
		if len(want) != c.Trials || compared == 0 {
			t.Fatalf("%d records comparing %d rows on the seed path", len(want), compared)
		}
		for _, width := range []int{1, 16} {
			c.BatchDecode = width
			if got := records(c); !reflect.DeepEqual(got, want) {
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("width %d trial %d: record\n%+v\nseed path\n%+v", width, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestFastForwardSpansCountExecutedSteps: Trial.Steps is the modelled
// inference and does not move, while the decode span counts the steps a
// trial ran. An inert ExtraHook sends every row back to the post-prompt
// fork without changing a bit of any trial, so trial for trial the
// unobserved campaign must run exactly GenIter fewer steps — and only a
// sampled trial of a traced campaign, which carries a probe, runs them
// all.
func TestFastForwardSpansCountExecutedSteps(t *testing.T) {
	c := fastForwardCampaign(t, false, faults.Comp2Bit)
	decodeSteps := func(c Campaign, opts ...RunnerOption) (*Result, []int) {
		steps := make([]int, c.Trials)
		opts = append(opts, WithSpanObserver(func(index int, spans []trace.Span, _ time.Duration) {
			for _, sp := range spans {
				if sp.Phase == trace.PhaseDecode {
					steps[index] = sp.Count
				}
			}
		}))
		return mustRun(t, c, opts...), steps
	}
	fast, ran := decodeSteps(c)
	sampled, ranSampled := decodeSteps(c, WithTrace(4, nil))
	c.ExtraHook = func() model.Hook { return func(model.LayerRef, int, []float32) {} }
	full, ranAll := decodeSteps(c)
	requireSameResult(t, full, fast)
	requireSameResult(t, full, sampled)

	skipped := 0
	for i, tr := range fast.Trials {
		g := tr.Site.GenIter
		if ran[i]+g != ranAll[i] {
			t.Fatalf("trial %d struck at iteration %d ran %d decode steps, %d from the post-prompt fork", i, g, ran[i], ranAll[i])
		}
		if want := ran[i] + g*b2i(i%4 == 0); ranSampled[i] != want {
			t.Fatalf("trial %d of the campaign traced 1 in 4 ran %d decode steps, want %d", i, ranSampled[i], want)
		}
		skipped += g
	}
	if skipped == 0 {
		t.Fatal("every trial struck iteration 0: nothing was skipped")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
