package core

import (
	"context"

	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/tasks"
)

// goldenModel builds an untrained profile model over the general vocab,
// optionally widened to a MoE.
func goldenModel(t *testing.T, fam model.Family, moe bool) *model.Model {
	t.Helper()
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("golden", vocab.Size(), numerics.BF16)
	if moe {
		cfg = model.MoEConfig(cfg)
	}
	return model.MustBuild(model.Spec{Config: cfg, Family: fam, Seed: 21})
}

// seedEquivalent runs the campaign twice — once through the prefix-cache
// engine (shared clones, batched prefill, snapshot reuse) and once pinned
// to the seed execution path (deep clones, sequential prefill, full
// re-prefill per trial) — and requires bit-identical trials and baseline
// outputs.
func seedEquivalent(t *testing.T, c Campaign) {
	t.Helper()

	engine := c
	engRes, err := engine.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	seedRes, err := seedPath(c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for i := range seedRes.Baseline.Instances {
		a, b := &seedRes.Baseline.Instances[i], &engRes.Baseline.Instances[i]
		if a.Text != b.Text || a.Choice != b.Choice || a.Steps != b.Steps ||
			!reflect.DeepEqual(a.Metrics, b.Metrics) ||
			!reflect.DeepEqual(a.ExpertTrace, b.ExpertTrace) {
			t.Fatalf("baseline instance %d differs:\nseed   %+v\nengine %+v", i, a, b)
		}
	}
	if len(seedRes.Trials) != len(engRes.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(seedRes.Trials), len(engRes.Trials))
	}
	for i := range seedRes.Trials {
		if !reflect.DeepEqual(seedRes.Trials[i], engRes.Trials[i]) {
			t.Fatalf("trial %d differs:\nseed   %+v\nengine %+v", i, seedRes.Trials[i], engRes.Trials[i])
		}
	}
}

// TestEngineGoldenGenerative pins the full engine — batched prefill,
// baseline KV snapshot reuse, and copy-on-write worker clones — to the
// seed path for generative campaigns across fault models, architectures,
// and both decoding strategies.
func TestEngineGoldenGenerative(t *testing.T) {
	suite := tasks.NewSelfRefSuite("golden-gen", 5, 4, 24, 10, []metrics.Kind{metrics.KindBLEU})
	cases := []struct {
		name  string
		moe   bool
		fam   model.Family
		fault faults.Model
		gen   gen.Settings
	}{
		{"dense-greedy-comp1", false, model.QwenS, faults.Comp1Bit, gen.Settings{}},
		{"dense-beam-comp2", false, model.LlamaS, faults.Comp2Bit, gen.Settings{NumBeams: 3}},
		{"dense-greedy-mem2", false, model.FalconS, faults.Mem2Bit, gen.Settings{}},
		{"moe-greedy-comp2", true, model.QwenS, faults.Comp2Bit, gen.Settings{}},
		{"moe-greedy-mem2", true, model.LlamaS, faults.Mem2Bit, gen.Settings{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seedEquivalent(t, Campaign{
				Model:  goldenModel(t, tc.fam, tc.moe),
				Suite:  suite,
				Fault:  tc.fault,
				Trials: 12,
				Seed:   31,
				Gen:    tc.gen,
			})
		})
	}
}

// TestEngineGoldenMC pins the engine to the seed path for
// multiple-choice campaigns (which never reuse the prefix but do use
// batched option scoring and shared clones).
func TestEngineGoldenMC(t *testing.T) {
	suite, err := tasks.NewMCSuite("arc", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
		t.Run(fault.String(), func(t *testing.T) {
			seedEquivalent(t, Campaign{
				Model:  goldenModel(t, model.QwenS, false),
				Suite:  suite,
				Fault:  fault,
				Trials: 12,
				Seed:   13,
			})
		})
	}
}

// TestEngineGoldenWithMitigation pins the engine to the seed path with a
// range-restriction mitigation hook in the ExtraHook slot: the clamp must
// observe identical values on both paths (the snapshot already contains
// the mitigated prefill).
func TestEngineGoldenWithMitigation(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	suite := tasks.NewSelfRefSuite("golden-mit", 9, 3, 20, 8, []metrics.Kind{metrics.KindBLEU})

	// Profile fault-free ranges once, then deploy a restrictor per run.
	prof := mitigate.Calibrate(m, suite, 0)

	seedEquivalent(t, Campaign{
		Model:  m,
		Suite:  suite,
		Fault:  faults.Comp2Bit,
		Trials: 10,
		Seed:   77,
		ExtraHook: func() model.Hook {
			return mitigate.NewRestrictor(prof).Hook()
		},
	})
}

// TestEngineReusesPrefix asserts the fast path actually engages: a
// generative computational-fault campaign must resume every trial from
// the baseline's state rather than silently falling back — a greedy one
// as a decode-loop row from a resume point per generated token, a beam
// one from the post-prompt snapshot.
func TestEngineReusesPrefix(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	suite := tasks.NewSelfRefSuite("golden-reuse", 3, 2, 16, 6, []metrics.Kind{metrics.KindBLEU})
	gs := defaultGen()
	c := Campaign{Model: m, Suite: suite, Fault: faults.Comp2Bit, Trials: 4, Seed: 1}

	greedy := EvalBaseline(m, suite, gs, nil)
	if !c.batchEligible(gs) {
		t.Fatal("greedy computational generative campaign should ride the decode loop")
	}
	for i, ib := range greedy.Instances {
		if ib.state == nil || len(ib.resume) < len(ib.Tokens) || ib.prefixLogits != nil {
			t.Fatalf("instance %d: greedy baseline keeps its finished state and a resume point per token, got %d points for %d tokens",
				i, len(ib.resume), len(ib.Tokens))
		}
	}

	gs.NumBeams = 3
	base := EvalBaseline(m, suite, gs, nil)
	for i := range base.Instances {
		if !c.reusePrefix(&base.Instances[i]) || base.Instances[i].resume != nil {
			t.Fatalf("instance %d: computational generative beam trial should reuse the post-prompt snapshot", i)
		}
	}
	c.Fault = faults.Mem2Bit
	if c.reusePrefix(&base.Instances[0]) {
		t.Fatal("memory-fault trial must not reuse prefix")
	}
	c.Fault = faults.Comp2Bit
	c.noPrefixReuse = true
	if c.reusePrefix(&base.Instances[0]) || c.batchEligible(defaultGen()) {
		t.Fatal("noPrefixReuse knob must disable reuse")
	}
	// RerunInstance baselines carry no snapshot.
	var bare InstanceBaseline
	c.noPrefixReuse = false
	if c.reusePrefix(&bare) {
		t.Fatal("baseline without snapshot must not reuse")
	}
}
