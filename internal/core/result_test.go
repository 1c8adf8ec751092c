package core

import (
	"context"

	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/outcome"
	"repro/internal/tasks"
)

// syntheticResult builds a Result from hand-written trials so the
// aggregation arithmetic can be verified exactly.
func syntheticResult() *Result {
	suite := &tasks.Suite{
		Name:    "synthetic",
		Type:    tasks.Generative,
		Metrics: []metrics.Kind{metrics.KindBLEU, metrics.KindChrF},
	}
	baseline := &Baseline{
		Suite: suite,
		Instances: []InstanceBaseline{
			{Metrics: map[metrics.Kind]float64{metrics.KindBLEU: 0.8, metrics.KindChrF: 0.9}},
			{Metrics: map[metrics.Kind]float64{metrics.KindBLEU: 0.6, metrics.KindChrF: 0.7}},
		},
		MetricMeans: map[metrics.Kind]float64{metrics.KindBLEU: 0.7, metrics.KindChrF: 0.8},
	}
	mkSite := func(bits ...int) faults.Site {
		return faults.Site{Fault: faults.Mem2Bit, Bits: bits}
	}
	trials := []Trial{
		{
			Site: mkSite(14, 2), Fired: true, Steps: 10,
			Outcome: outcome.Analysis{Class: outcome.Masked},
			Metrics: map[metrics.Kind]float64{metrics.KindBLEU: 0.7, metrics.KindChrF: 0.8},
		},
		{
			Site: mkSite(14, 5), Fired: true, Steps: 20, ExpertChanged: true,
			Outcome:  outcome.Analysis{Class: outcome.SDCSubtle, Changed: true},
			Metrics:  map[metrics.Kind]float64{metrics.KindBLEU: 0.35, metrics.KindChrF: 0.4},
			AnswerOK: false,
		},
		{
			Site: mkSite(3, 7), Fired: false, Steps: 30,
			Outcome:  outcome.Analysis{Class: outcome.SDCDistorted, Changed: true},
			Metrics:  map[metrics.Kind]float64{metrics.KindBLEU: 0.0, metrics.KindChrF: 0.0},
			AnswerOK: true,
		},
	}
	return &Result{
		Campaign: Campaign{Suite: suite},
		Baseline: baseline,
		Trials:   trials,
	}
}

func TestMetricMean(t *testing.T) {
	r := syntheticResult()
	want := (0.7 + 0.35 + 0.0) / 3
	if got := r.MetricMean(metrics.KindBLEU); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MetricMean = %g, want %g", got, want)
	}
}

func TestNormalizedRatio(t *testing.T) {
	r := syntheticResult()
	ratio := r.Normalized(metrics.KindBLEU)
	want := ((0.7 + 0.35 + 0.0) / 3) / 0.7
	if math.Abs(ratio.Value-want) > 1e-12 {
		t.Fatalf("Normalized = %g, want %g", ratio.Value, want)
	}
	if !(ratio.Lo <= ratio.Value && ratio.Value <= ratio.Hi) {
		t.Fatal("CI does not bracket estimate")
	}
}

func TestMeanNormalizedAveragesMetrics(t *testing.T) {
	r := syntheticResult()
	bleu := r.Normalized(metrics.KindBLEU).Value
	chrf := r.Normalized(metrics.KindChrF).Value
	if got := r.MeanNormalized(); math.Abs(got-(bleu+chrf)/2) > 1e-12 {
		t.Fatalf("MeanNormalized = %g", got)
	}
}

func TestTallyAndRates(t *testing.T) {
	r := syntheticResult()
	tally := r.Tally()
	if tally.Masked != 1 || tally.Subtle != 1 || tally.Distorted != 1 {
		t.Fatalf("tally %+v", tally)
	}
	if math.Abs(r.MaskedRate()-1.0/3) > 1e-12 {
		t.Fatal("MaskedRate")
	}
	if math.Abs(r.FiredRate()-2.0/3) > 1e-12 {
		t.Fatal("FiredRate")
	}
	if math.Abs(r.ExpertChangedRate()-1.0/3) > 1e-12 {
		t.Fatal("ExpertChangedRate")
	}
	if math.Abs(r.OutputChangedRate()-2.0/3) > 1e-12 {
		t.Fatal("OutputChangedRate")
	}
	if math.Abs(r.GoldAccuracy()-1.0/3) > 1e-12 {
		t.Fatal("GoldAccuracy")
	}
	if r.MeanSteps() != 20 {
		t.Fatal("MeanSteps")
	}
}

func TestBitBreakdown(t *testing.T) {
	r := syntheticResult()
	buckets := r.BitBreakdown()
	// Highest bits: 14, 14, 7 -> two buckets.
	if len(buckets) != 2 {
		t.Fatalf("buckets %v", buckets)
	}
	if buckets[0].Bit != 7 || buckets[1].Bit != 14 {
		t.Fatal("bucket order should be ascending by bit")
	}
	if buckets[1].Trials != 2 || buckets[1].Subtle != 1 || buckets[1].Distorted != 0 {
		t.Fatalf("bit-14 bucket %+v", buckets[1])
	}
	if buckets[0].Distorted != 1 {
		t.Fatalf("bit-7 bucket %+v", buckets[0])
	}
}

func TestBitProportions(t *testing.T) {
	r := syntheticResult()
	subtle := r.BitProportions(outcome.SDCSubtle)
	if subtle[14] != 1.0 {
		t.Fatalf("subtle proportions %v", subtle)
	}
	distorted := r.BitProportions(outcome.SDCDistorted)
	if distorted[7] != 1.0 {
		t.Fatalf("distorted proportions %v", distorted)
	}
	if len(r.BitProportions(outcome.Masked)) != 1 {
		t.Fatal("masked proportions should have one bucket")
	}
}

func TestPrimaryMetric(t *testing.T) {
	r := syntheticResult()
	if r.PrimaryMetric() != metrics.KindBLEU {
		t.Fatal("primary metric should be the suite's first")
	}
}

func TestExpertTraceEqual(t *testing.T) {
	a := [][]int{{1, 2}, {3}}
	if !expertTraceEqual(a, [][]int{{1, 2}, {3}}) {
		t.Fatal("equal traces")
	}
	if expertTraceEqual(a, [][]int{{1, 2}, {4}}) {
		t.Fatal("different expert")
	}
	if expertTraceEqual(a, [][]int{{1, 2}}) {
		t.Fatal("different block count")
	}
	if expertTraceEqual(a, [][]int{{1}, {3}}) {
		t.Fatal("different trace length")
	}
}

func TestFaultWindowMC(t *testing.T) {
	suite := &tasks.Suite{Type: tasks.MultipleChoice}
	c := Campaign{Suite: suite}
	inst := tasks.Instance{
		Prompt:  make([]int, 10),
		Options: [][]int{make([]int, 3), make([]int, 5)},
	}
	iters, promptLen := c.faultWindow(&inst, &InstanceBaseline{})
	if iters != 15 || promptLen != 0 {
		t.Fatalf("MC window = (%d, %d), want (15, 0)", iters, promptLen)
	}
}

func TestFaultWindowGenerative(t *testing.T) {
	suite := &tasks.Suite{Type: tasks.Generative}
	c := Campaign{Suite: suite}
	inst := tasks.Instance{Prompt: make([]int, 8)}
	base := &InstanceBaseline{Tokens: make([]int, 12), ReasoningLen: 9}
	iters, promptLen := c.faultWindow(&inst, base)
	if iters != 12 || promptLen != 8 {
		t.Fatalf("gen window = (%d, %d)", iters, promptLen)
	}
	c.ReasoningOnly = true
	iters, _ = c.faultWindow(&inst, base)
	if iters != 9 {
		t.Fatalf("reasoning-only window = %d, want 9", iters)
	}
	// Empty baseline output still yields a valid window.
	iters, _ = c.faultWindow(&inst, &InstanceBaseline{})
	if iters != 1 {
		t.Fatalf("empty-output window = %d, want 1", iters)
	}
}

func TestExtraHookInstalledForBaselineAndTrials(t *testing.T) {
	m := testMCModel(t, model.QwenS)
	suite, err := tasks.NewMCSuite("winogrande", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	installs := 0
	c := Campaign{
		Model: m, Suite: suite, Fault: faults.Comp1Bit,
		Trials: 6, Seed: 2, Workers: 1,
		ExtraHook: func() model.Hook {
			installs++
			return func(model.LayerRef, int, []float32) {}
		},
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One install for the baseline + one per trial.
	if installs != 7 {
		t.Fatalf("ExtraHook installed %d times, want 7", installs)
	}
	if len(m.LinearLayers()) == 0 {
		t.Fatal("model unusable after campaign")
	}
}

// TestRunKeepsCallerHooks: the runner adds the campaign's ExtraHook to the
// caller's model for the baseline, and must take off that hook only — one
// the caller had installed is still there after Run.
func TestRunKeepsCallerHooks(t *testing.T) {
	m := testMCModel(t, model.QwenS)
	suite, err := tasks.NewMCSuite("winogrande", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	noop := func() model.Hook { return func(model.LayerRef, int, []float32) {} }
	m.AddHook(noop())
	c := Campaign{Model: m, Suite: suite, Fault: faults.Comp1Bit, Trials: 2, Seed: 2, ExtraHook: noop}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !m.Observed() {
		t.Fatal("Run removed a hook the caller had installed on the model")
	}
	m.PopHook()
	if m.Observed() {
		t.Fatal("Run left its ExtraHook on the caller's model")
	}
}
