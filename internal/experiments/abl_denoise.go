package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/pretrained"
	"repro/internal/prng"
	"repro/internal/report"
	"repro/internal/tasks"
	"repro/internal/train"
)

func init() {
	register(Experiment{
		ID:       "abl3",
		Title:    "Ablation 3: CoT recovery requires denoising training",
		PaperRef: "Observation #10 boundary condition",
		Run:      runAbl3,
	})
}

// cleanMathTask wraps MathTask but disables the input-corruption channel,
// producing a model trained only on pristine reasoning chains.
type cleanMathTask struct {
	*tasks.MathTask
}

// CorruptInputs overrides the noisy channel with the identity.
func (c cleanMathTask) CorruptInputs(_ *prng.Source, inputs []int, _ int) []int {
	return inputs
}

// runAbl3 trains two small math models — one on clean chains only, one
// with the denoising corruption the shipped checkpoints use — and
// compares their CoT-vs-direct resilience. It isolates the mechanism
// behind Observation #10: a model that has never seen a corrupted chain
// trusts its own (possibly faulty) intermediate tokens and loses the CoT
// advantage; denoising training restores it.
func runAbl3(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("abl3", "CoT denoising-training ablation")

	mt := pretrained.MathTask()
	arch := model.Config{
		Name: "abl3", Vocab: 8, DModel: 48, NHeads: 4, NBlocks: 2,
		FFHidden: 112, MaxSeq: 28, Eps: 1e-5, RopeTheta: 10000,
	}
	tcfg := train.DefaultConfig(404)
	tcfg.Steps = 900
	tcfg.Batch = 24

	variants := []struct {
		label string
		task  tasks.TrainTask
	}{
		{"denoising (shipped recipe)", mt},
		{"clean chains only", cleanMathTask{mt}},
	}

	t := report.NewTable("Training", "Fault", "CoT NormAcc", "Direct NormAcc", "CoT - Direct")
	for _, v := range variants {
		tr, err := train.Run(v.task, arch, tcfg)
		if err != nil {
			return nil, err
		}
		m := tr.Export("abl3-"+v.label, numerics.BF16)
		for _, fm := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
			var norms [2]float64
			for i, cot := range []bool{true, false} {
				suite := mt.Suite(cfg.Seed, cfg.Instances, cot)
				res, err := cfg.campaign(ctx, fmt.Sprintf("abl3 %s/%v/cot=%v", shortLabel(v.label), fm, cot), core.Campaign{
					Model: m, Suite: suite, Fault: fm,
					Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("abl3", v.label, fm.String(), fmt.Sprint(cot)),
					ReasoningOnly: cot && fm == faults.Comp2Bit,
					Workers:       cfg.Workers,
				})
				if err != nil {
					return nil, err
				}
				norms[i] = res.Normalized(metrics.KindAccuracy).Value
			}
			t.Row(v.label, fm.String(), norms[0], norms[1], norms[0]-norms[1])
			key := fmt.Sprintf("%s.%v.gap", shortLabel(v.label), fm)
			o.set(key, norms[0]-norms[1])
		}
	}
	o.Text = t.String() + "\nExpected shape: denoising training shrinks (and, at the full\n" +
		"cmd/pretrain budget, flips positive) the CoT-minus-direct gap, while\n" +
		"the clean-chains model stays clearly negative — it blindly propagates\n" +
		"corrupted intermediate tokens. This bounds when the paper's\n" +
		"Observation #10 applies: the deployed model must actually possess\n" +
		"chain-recovery ability.\n"
	return o, nil
}

func shortLabel(l string) string {
	if l[0] == 'd' {
		return "denoise"
	}
	return "clean"
}
