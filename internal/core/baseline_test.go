package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/abft"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pretrained"
	"repro/internal/tasks"
	"repro/internal/token"
)

func TestDefaultCheckerMath(t *testing.T) {
	mt := pretrained.MathTask()
	suite := mt.Suite(1, 3, true)
	check := DefaultChecker(suite)
	inst := &suite.Instances[0]
	p := tasks.Problem{} // reconstruct gold from reference
	_ = p
	// The gold completion must pass the checker.
	v := suite.Vocab
	gold := v.Encode(inst.Reference)
	toks := append([]int{v.ID(tasks.MathAnswer)}, gold...)
	if !check(inst, toks) {
		t.Fatal("gold answer rejected")
	}
	// A wrong number must fail.
	wrong := []int{v.ID(tasks.MathAnswer), v.ID("0")}
	if inst.Reference != "0" && check(inst, wrong) {
		t.Fatal("wrong answer accepted")
	}
}

func TestDefaultCheckerText(t *testing.T) {
	qt := pretrained.QATask()
	suite := qt.Suite(1, 2)
	check := DefaultChecker(suite)
	inst := &suite.Instances[0]
	if !check(inst, suite.Vocab.Encode(inst.Reference)) {
		t.Fatal("exact reference rejected")
	}
	if check(inst, []int{token.UNK}) {
		t.Fatal("garbage accepted")
	}
}

func TestBaselineSelfReference(t *testing.T) {
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("b", vocab.Size(), 0)
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 3})
	suite := tasks.NewSelfRefSuite("x", 5, 4, 6, 8, []metrics.Kind{metrics.KindBLEU})
	b := EvalBaseline(m, suite, gen.Settings{NumBeams: 1, StopToken: token.EOS, BanSpecials: true}, nil)
	// Self-referential baselines score exactly 1.0 on every metric.
	if b.MetricMeans[metrics.KindBLEU] != 1 {
		t.Fatalf("self-ref baseline BLEU = %f, want 1", b.MetricMeans[metrics.KindBLEU])
	}
	for _, ib := range b.Instances {
		if ib.Reference == "" && ib.Text != "" {
			t.Fatal("reference not filled from fault-free output")
		}
	}
}

func TestBeamCampaignRuns(t *testing.T) {
	loader := pretrained.NewLoader("")
	m, err := loader.Load("wmt-alma")
	if err != nil {
		t.Fatal(err)
	}
	suite := pretrained.TranslationTask().Suite(2, 3)
	res, err := Campaign{
		Model: m, Suite: suite, Fault: faults.Comp2Bit,
		Trials: 10, Seed: 4, Gen: gen.Settings{NumBeams: 3},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanSteps() <= float64(len(suite.Instances[0].Prompt)) {
		t.Fatal("beam campaign should report meaningful step counts")
	}
}

func TestReasoningOnlyRestrictsIterations(t *testing.T) {
	loader := pretrained.NewLoader("")
	m, err := loader.Load("math-qwens")
	if err != nil {
		t.Fatal(err)
	}
	mt := pretrained.MathTask()
	suite := mt.Suite(2, 4, true)
	res, err := Campaign{
		Model: m, Suite: suite, Fault: faults.Comp2Bit,
		Trials: 40, Seed: 5, ReasoningOnly: true,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trials {
		base := res.Baseline.Instances[tr.Instance]
		if base.ReasoningLen > 0 && tr.Site.GenIter >= base.ReasoningLen {
			t.Fatalf("trial iteration %d beyond reasoning length %d",
				tr.Site.GenIter, base.ReasoningLen)
		}
	}
}

func TestGateOnlyCampaignOnDenseFails(t *testing.T) {
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("d", vocab.Size(), 0)
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 3})
	suite, _ := tasks.NewMCSuite("arc", 1, 2)
	_, err := Campaign{
		Model: m, Suite: suite, Fault: faults.Mem2Bit,
		Trials: 4, Seed: 1, Filter: faults.GateOnly,
	}.Run(context.Background())
	if err == nil {
		t.Fatal("gate-only on dense model must error")
	}
}

func TestCampaignValidation(t *testing.T) {
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("v", vocab.Size(), 0)
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 3})
	suite, _ := tasks.NewMCSuite("arc", 1, 2)
	if _, err := (Campaign{Model: m, Suite: suite, Fault: faults.Mem2Bit}).Run(context.Background()); err == nil {
		t.Fatal("zero trials should error")
	}
	small := cfg
	small.MaxSeq = 4
	sm := model.MustBuild(model.Spec{Config: small, Family: model.QwenS, Seed: 3})
	if _, err := (Campaign{Model: sm, Suite: suite, Fault: faults.Mem2Bit, Trials: 2}).Run(context.Background()); err == nil {
		t.Fatal("context too small should error")
	}
}

func TestRerunInstanceMatchesBaseline(t *testing.T) {
	loader := pretrained.NewLoader("")
	m, err := loader.Load("squad-qwens")
	if err != nil {
		t.Fatal(err)
	}
	suite := pretrained.QATask().Suite(9, 3)
	b := EvalBaseline(m, suite, defaultGen(), nil)
	for i := range suite.Instances {
		if got := RerunInstance(m, model.Observers{}, suite, &suite.Instances[i]); got != b.Instances[i].Text {
			t.Fatalf("RerunInstance %d = %q, baseline %q", i, got, b.Instances[i].Text)
		}
	}
}

// engineFields names the unexported fields of ib that are set. They are
// the engine's working set — KV state, resume points, captures — and
// whatever a later PR adds beside them.
func engineFields(ib *InstanceBaseline) []string {
	var set []string
	v := reflect.ValueOf(ib).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); !f.IsExported() && !v.Field(i).IsZero() {
			set = append(set, f.Name)
		}
	}
	return set
}

// TestScoresDropsEngineState walks InstanceBaseline by reflection: no
// unexported field may survive Scores(), or every retained Result pins
// that field — a KV cache per instance, the last time it happened. The
// baselines below (greedy with activation capture, a memory-fault one
// with depth planes and a ledger, and beam) must between them populate
// every such field, so a new one cannot dodge the check by being nil
// here.
func TestScoresDropsEngineState(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	suite := tasks.NewSelfRefSuite("scores", 3, 2, 10, 5, []metrics.Kind{metrics.KindBLEU})
	gs := defaultGen()
	traced := evalBaseline(m, suite, gs, nil, baselineOpts{capMinPos: func(inst *tasks.Instance) int { return len(inst.Prompt) }})
	depth := evalBaseline(m, suite, gs, nil, baselineOpts{depthFrom: func(*tasks.Instance) int { return 0 }, ledger: abft.Protection{}.Table(m)})
	gs.NumBeams = 2
	beam := EvalBaseline(m, suite, gs, nil)

	populated := map[string]bool{}
	for _, b := range []*Baseline{traced, depth, beam} {
		for i := range b.Instances {
			for _, name := range engineFields(&b.Instances[i]) {
				populated[name] = true
			}
		}
		scores := b.Scores()
		for i := range scores.Instances {
			if kept := engineFields(&scores.Instances[i]); len(kept) > 0 {
				t.Fatalf("instance %d: Scores() kept engine state %v", i, kept)
			}
			if scores.Instances[i].Text != b.Instances[i].Text {
				t.Fatalf("instance %d: Scores() lost the fault-free output", i)
			}
		}
	}
	typ := reflect.TypeOf(InstanceBaseline{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !f.IsExported() && !populated[f.Name] {
			t.Errorf("no baseline here sets %s: extend the test so Scores() is checked against it", f.Name)
		}
	}
}
