package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/tasks"
)

func partitionCampaign(t *testing.T) Campaign {
	t.Helper()
	return New(
		goldenModel(t, model.QwenS, false),
		tasks.NewSelfRefSuite("part", 3, 2, 16, 6, []metrics.Kind{metrics.KindBLEU}),
		faults.Comp2Bit, 10, 17,
	)
}

// TestWithOnlyPartitionGolden splits the trial-index space across three
// disjoint WithOnly runners and requires the union to be bit-identical
// to the full run — the property the distributed fabric's merge rests
// on (trial t is a pure function of the fingerprint and t).
func TestWithOnlyPartitionGolden(t *testing.T) {
	c := partitionCampaign(t)
	full, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	parts := [][]int{{0, 3, 6, 9}, {1, 4, 7}, {2, 5, 8}}
	merged := make([]Trial, c.Trials)
	seen := make([]bool, c.Trials)
	for _, idx := range parts {
		res, err := NewRunner(c, WithOnly(idx)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]bool{}
		for _, i := range idx {
			want[i] = true
		}
		for i, tr := range res.Trials {
			if !want[i] {
				// Unselected indices stay zero-valued in the partial Result.
				if !reflect.DeepEqual(tr, Trial{}) {
					t.Fatalf("partition %v executed unselected trial %d: %+v", idx, i, tr)
				}
				continue
			}
			merged[i] = tr
			seen[i] = true
		}
	}
	for i := range seen {
		if !seen[i] {
			t.Fatalf("trial %d not covered by any partition", i)
		}
		if !reflect.DeepEqual(merged[i], full.Trials[i]) {
			t.Fatalf("trial %d differs from the full run:\npart %+v\nfull %+v", i, merged[i], full.Trials[i])
		}
	}
}

// TestWithOnlyBounds: out-of-range indices are ignored and an empty
// selection runs zero trials.
func TestWithOnlyBounds(t *testing.T) {
	c := partitionCampaign(t)
	res, err := NewRunner(c, WithOnly([]int{-1, 2, c.Trials, c.Trials + 5})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for i, tr := range res.Trials {
		if !reflect.DeepEqual(tr, Trial{}) {
			if i != 2 {
				t.Fatalf("unexpected trial %d executed", i)
			}
			ran++
		}
	}
	if ran != 1 {
		t.Fatalf("ran %d trials, want 1 (only index 2 is in range)", ran)
	}

	empty, err := NewRunner(c, WithOnly([]int{})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range empty.Trials {
		if !reflect.DeepEqual(tr, Trial{}) {
			t.Fatalf("empty selection executed trial %d", i)
		}
	}
}

// TestWithBaselineReuse runs the campaign against a precomputed baseline
// (the fabric worker's steady state: evaluate once, reuse per lease) and
// requires trials bit-identical to the self-evaluating run.
func TestWithBaselineReuse(t *testing.T) {
	c := partitionCampaign(t)
	full, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	base := c.EvalBaseline()
	res, err := NewRunner(c, WithBaseline(base)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The Result adopts the provided baseline's scores, not its KV
	// snapshots (DeepEqual sees the unexported fields Scores clears):
	// holding a Result must not pin the engine's working set. The
	// provided baseline keeps its own.
	if !reflect.DeepEqual(res.Baseline, base.Scores()) {
		t.Fatal("result did not adopt the provided baseline's scores")
	}
	for i := range base.Instances {
		if kept := engineFields(&res.Baseline.Instances[i]); len(kept) > 0 {
			t.Fatalf("instance %d: the result's baseline still holds %v", i, kept)
		}
		if base.Instances[i].rec == nil {
			t.Fatalf("instance %d: the provided baseline must keep the state trials fork from", i)
		}
	}
	// A scores-only baseline cannot seed a campaign that forks trials from
	// the prefix: refused up front, not a nil snapshot in a worker.
	if _, err := NewRunner(c, WithBaseline(res.Baseline)).Run(context.Background()); !errors.Is(err, ErrBaselineNoPrefix) {
		t.Fatalf("scores-only baseline: err = %v, want ErrBaselineNoPrefix", err)
	}
	for i := range full.Trials {
		if !reflect.DeepEqual(res.Trials[i], full.Trials[i]) {
			t.Fatalf("trial %d differs under reused baseline:\ngot  %+v\nwant %+v", i, res.Trials[i], full.Trials[i])
		}
	}

	// The standalone evaluation itself must match the runner's own.
	for i := range full.Baseline.Instances {
		a, b := &full.Baseline.Instances[i], &base.Instances[i]
		if a.Text != b.Text || a.Steps != b.Steps || !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Fatalf("EvalBaseline instance %d differs:\nrun  %+v\neval %+v", i, a, b)
		}
	}
}

// TestWithBaselineBeamNeedsPrefix: a beam campaign's transient rows start
// from the baseline's post-prompt snapshot, so a full baseline reproduces
// the self-evaluating run — detections included — and a Result's
// scores-only copy is refused as it is for greedy rows, rather than run
// whole with the prompt's checks counted into every Detection.
func TestWithBaselineBeamNeedsPrefix(t *testing.T) {
	c := partitionCampaign(t)
	c.Gen = gen.Settings{NumBeams: 3}
	c.ABFT = &ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true}
	ref := mustRun(t, c)
	requireSameResult(t, ref, mustRun(t, c, WithBaseline(c.EvalBaseline())))
	if _, err := NewRunner(c, WithBaseline(ref.Baseline)).Run(context.Background()); !errors.Is(err, ErrBaselineNoPrefix) {
		t.Fatalf("scores-only baseline under beam search: err = %v, want ErrBaselineNoPrefix", err)
	}
}
