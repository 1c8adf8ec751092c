package core

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// depthCampaign is a memory-fault campaign with enough trials to strike
// every layer kind of every block: two instances of 14 prompt tokens and
// up to 8 generated ones.
func depthCampaign(t *testing.T, moe bool, abft *ABFTConfig) Campaign {
	t.Helper()
	return Campaign{
		Model:   goldenModel(t, model.QwenS, moe),
		Suite:   tasks.NewSelfRefSuite("depth", 23, 2, 14, 8, []metrics.Kind{metrics.KindBLEU}),
		Fault:   faults.Mem2Bit,
		Trials:  100,
		Seed:    11,
		Workers: 1,
		ABFT:    abft,
	}
}

// runDepth runs c and returns its Result and DepthSkippedRows.
func runDepth(t *testing.T, c Campaign, opts ...RunnerOption) (*Result, int64) {
	t.Helper()
	tel := NewTelemetry()
	res := mustRun(t, c, append(opts, WithTelemetry(tel))...)
	return res, tel.Snapshot().DepthSkippedRows
}

// whole pins c to the whole inference per trial: no depth fork.
func whole(c Campaign) Campaign {
	c.noPrefixReuse = true
	return c
}

// TestDepthForkMatchesWholeInference is the tentpole's contract. A
// memory-fault trial is a decode-loop row that prefills its prompt under
// its own strike, on a fork of the baseline in depth at its site's
// sublayer, and skips the clean sublayers below while its tokens match
// the baseline's; for every (block, layer kind) the sampler strikes — the
// router and routed experts of the MoE included — under ABFT off,
// site-only and all-layer, each with detect, correct and correct-skip,
// and at decode width 1 and 8 (rows forked at different sublayers sharing
// each step), the Trial must be the one the whole inference computes,
// Detection field for field: the all-layer checks it skipped are the
// baseline ledger's.
func TestDepthForkMatchesWholeInference(t *testing.T) {
	arms := map[string]*ABFTConfig{"off": nil}
	for _, pol := range []mitigate.Policy{mitigate.PolicyDetect, mitigate.PolicyCorrect, mitigate.PolicyCorrectOrSkip} {
		arms["site/"+pol.String()] = &ABFTConfig{Policy: pol}
		arms["all/"+pol.String()] = &ABFTConfig{Policy: pol, AllLayers: true}
	}
	for _, moe := range []bool{false, true} {
		for name, arm := range arms {
			t.Run(fmt.Sprintf("moe=%v/%s", moe, name), func(t *testing.T) {
				t.Parallel()
				c := depthCampaign(t, moe, arm)
				want, skippedWhole := runDepth(t, whole(c))
				if skippedWhole != 0 {
					t.Fatalf("the whole path skipped %d sublayer-positions", skippedWhole)
				}
				for _, width := range []int{1, 8} {
					t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
						c := c
						c.BatchDecode = width
						got, skipped := runDepth(t, c)
						requireSameResult(t, want, got)
						if skipped == 0 {
							t.Fatal("the depth path skipped no sublayer-position")
						}
					})
				}

				struck := map[[2]int]bool{}
				experts := 0
				for _, tr := range want.Trials {
					struck[[2]int{tr.Site.Layer.Block, int(tr.Site.Layer.Kind)}] = true
					if tr.Site.Layer.Expert >= 0 {
						experts++
					}
				}
				for _, li := range c.Model.LinearLayers() {
					if !struck[[2]int{li.Ref.Block, int(li.Ref.Kind)}] {
						t.Fatalf("no trial strikes %v: raise Trials", li.Ref)
					}
				}
				if moe && experts == 0 {
					t.Fatal("no trial strikes an expert: raise Trials")
				}
			})
		}
	}
}

// TestDepthForkLedgerFallback: a tolerance far under the kernel's noise
// makes every clean check flag, so the ledger puts a flag below every
// resume point and each trial falls back to its first sublayer — and a
// correcting checker acting on those flags must still give the whole
// inference's Trials.
func TestDepthForkLedgerFallback(t *testing.T) {
	c := depthCampaign(t, false, &ABFTConfig{Policy: mitigate.PolicyCorrectOrSkip, AllLayers: true, Tol: 1e-12})
	c.Trials = 48
	want, _ := runDepth(t, whole(c))
	got, skipped := runDepth(t, c)
	requireSameResult(t, want, got)
	if skipped != 0 {
		t.Fatalf("trials skipped %d sublayer-positions under a ledger that flags sublayer 0", skipped)
	}
	if s := got.Detection(); s.Flagged == 0 || s.Skipped == 0 {
		t.Fatalf("the checker never acted on a clean flag: %+v", s)
	}
}

// TestDepthForkObserversSkipNothing: an ExtraHook and a propagation probe
// watch every layer, so their trials run whole — the campaign skips
// nothing under an ExtraHook, and a traced campaign only in the trials it
// does not sample — and every Trial and sampled Record stays the one the
// whole inference gives.
func TestDepthForkObserversSkipNothing(t *testing.T) {
	c := depthCampaign(t, false, nil)
	c.Trials = 40
	want, skippedAll := runDepth(t, c)

	hooked := c
	hooked.ExtraHook = func() model.Hook { return func(model.LayerRef, int, []float32) {} }
	got, skipped := runDepth(t, hooked)
	requireSameResult(t, want, got)
	if skipped != 0 {
		t.Fatalf("an ExtraHook campaign skipped %d sublayer-positions", skipped)
	}

	records := func(c Campaign, every int) (map[int]trace.Record, int64) {
		recs := map[int]trace.Record{}
		res, skipped := runDepth(t, c, WithTrace(every, func(r trace.Record) error {
			r.Spans = nil // timings
			recs[r.Trial] = r
			return nil
		}))
		requireSameResult(t, want, res)
		return recs, skipped
	}
	wantRecs, _ := records(whole(c), 1)
	allRecs, skipped := records(c, 1)
	if skipped != 0 || !reflect.DeepEqual(allRecs, wantRecs) {
		t.Fatalf("every trial traced: skipped %d sublayer-positions, records equal %v", skipped, reflect.DeepEqual(allRecs, wantRecs))
	}
	sampled, skipped := records(c, 4)
	for i, r := range sampled {
		if !reflect.DeepEqual(r, wantRecs[i]) {
			t.Fatalf("trial %d sampled 1 in 4: record differs from the whole inference's", i)
		}
	}
	if len(sampled) != c.Trials/4 || skipped == 0 || skipped >= skippedAll {
		t.Fatalf("1 in 4 traced: %d records, %d sublayer-positions skipped of %d untraced", len(sampled), skipped, skippedAll)
	}
}

// TestDepthForkResumeAndBaselineReuse: a campaign resumed from its
// checkpoint, and one run against the BaselineReady baseline of another
// (the fabric worker's path), fork the same depth planes and ledger and
// give the uninterrupted Result; a scores-only baseline, which has none,
// runs every trial whole and gives it too.
func TestDepthForkResumeAndBaselineReuse(t *testing.T) {
	c := depthCampaign(t, true, &ABFTConfig{Policy: mitigate.PolicyCorrectOrSkip, AllLayers: true})
	c.Trials = 48
	ref, _ := runDepth(t, c)

	path := filepath.Join(t.TempDir(), "depth.ckpt")
	if _, err := NewRunner(c, WithOnly(firstHalf(c.Trials)), WithCheckpoint(path)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewRunner(c).Resume(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, ref, resumed)

	var base *Baseline
	for ev := range NewRunner(c, WithOnly(nil)).Stream(context.Background()) {
		if b, ok := ev.(BaselineReady); ok {
			base = b.Baseline
		}
	}
	reused, skipped := runDepth(t, c, WithBaseline(base))
	requireSameResult(t, ref, reused)
	if skipped == 0 {
		t.Fatal("trials on a BaselineReady baseline skipped nothing")
	}
	scoresOnly, skipped := runDepth(t, c, WithBaseline(ref.Baseline))
	requireSameResult(t, ref, scoresOnly)
	if skipped != 0 {
		t.Fatalf("trials on a scores-only baseline skipped %d sublayer-positions", skipped)
	}
}

// TestDepthForkNeedsCoveringPlanes: a transient-fault campaign's baseline
// records its depth planes from each prompt's end, where its rows fork. A
// memory-fault runner handed it (WithBaseline) forks at position 0, which
// those planes do not cover, so its rows run whole — nothing skipped —
// and give the Result its own baseline gives with the depth fork. The
// reverse is covered: a memory-fault baseline's planes start at the first
// prompt token, and a transient runner handed it skips exactly what it
// skips on its own.
func TestDepthForkNeedsCoveringPlanes(t *testing.T) {
	mem := depthCampaign(t, false, nil)
	mem.Trials = 48
	comp := mem
	comp.Fault = faults.Comp2Bit
	baselineOf := func(c Campaign) *Baseline {
		var base *Baseline
		for ev := range NewRunner(c, WithOnly(nil)).Stream(context.Background()) {
			if b, ok := ev.(BaselineReady); ok {
				base = b.Baseline
			}
		}
		return base
	}
	for _, tc := range []struct {
		name       string
		run, donor Campaign
		covers     bool
	}{
		{"memory faults on transient planes", mem, comp, false},
		{"transient faults on memory planes", comp, mem, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, ownSkipped := runDepth(t, tc.run)
			got, skipped := runDepth(t, tc.run, WithBaseline(baselineOf(tc.donor)))
			requireSameResult(t, want, got)
			wantSkipped := int64(0)
			if tc.covers {
				wantSkipped = ownSkipped
			}
			if ownSkipped == 0 || skipped != wantSkipped {
				t.Fatalf("skipped %d sublayer-positions on the other campaign's baseline, want %d (%d on its own)",
					skipped, wantSkipped, ownSkipped)
			}
		})
	}
}

func firstHalf(n int) []int {
	idx := make([]int, n/2)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
