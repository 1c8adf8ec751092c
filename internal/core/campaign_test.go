package core

import (
	"context"

	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/outcome"
	"repro/internal/pretrained"
	"repro/internal/tasks"
)

// testMCModel returns a small profile model sized for the MC suites.
func testMCModel(t *testing.T, fam model.Family) *model.Model {
	t.Helper()
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("test-"+fam.String(), vocab.Size(), numerics.BF16)
	m, err := model.Build(model.Spec{Config: cfg, Family: fam, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMCCampaignSmoke(t *testing.T) {
	m := testMCModel(t, model.QwenS)
	suite, err := tasks.NewMCSuite("arc", 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fm := range faults.Models {
		c := Campaign{Model: m, Suite: suite, Fault: fm, Trials: 24, Seed: 99}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", fm, err)
		}
		if len(res.Trials) != 24 {
			t.Fatalf("%v: got %d trials", fm, len(res.Trials))
		}
		masked := res.MaskedRate()
		if masked < 0.2 {
			t.Errorf("%v: implausibly low masked rate %.2f", fm, masked)
		}
		t.Logf("%v masked=%.2f goldAcc=%.2f norm=%.3f", fm, masked, res.GoldAccuracy(), res.NormalizedPrimary().Value)
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	m := testMCModel(t, model.LlamaS)
	suite, err := tasks.NewMCSuite("winogrande", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []Trial {
		c := Campaign{Model: m, Suite: suite, Fault: faults.Mem2Bit, Trials: 16, Seed: 5, Workers: workers}
		res, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Trials
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i].Site.String() != b[i].Site.String() || a[i].Choice != b[i].Choice {
			t.Fatalf("trial %d differs across worker counts:\n%v choice %d\n%v choice %d",
				i, a[i].Site, a[i].Choice, b[i].Site, b[i].Choice)
		}
	}
}

func TestGenerativeCampaignWithTrainedModel(t *testing.T) {
	loader := pretrained.NewLoader("")
	m, err := loader.Load("math-qwens")
	if err != nil {
		t.Fatal(err)
	}
	mt := pretrained.MathTask()
	suite := mt.Suite(3, 6, true)
	c := Campaign{Model: m, Suite: suite, Fault: faults.Mem2Bit, Trials: 30, Seed: 17}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.GoldAccuracy < 0.5 {
		t.Fatalf("trained math model fault-free accuracy too low: %.2f", res.Baseline.GoldAccuracy)
	}
	tally := res.Tally()
	t.Logf("baseline acc %.2f, norm %.3f, tally %+v", res.Baseline.GoldAccuracy, res.NormalizedPrimary().Value, tally)
	if tally.Total() != 30 {
		t.Fatal("tally mismatch")
	}
	// Memory faults must be restored between trials: rerunning the
	// baseline after the campaign must give identical outputs.
	again := EvalBaseline(m, suite, defaultGen(), nil)
	for i := range again.Instances {
		if again.Instances[i].Text != res.Baseline.Instances[i].Text {
			t.Fatalf("model mutated by campaign at instance %d", i)
		}
	}
	_ = outcome.Masked
}
