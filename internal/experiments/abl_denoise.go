package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/pretrained"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:       "abl3",
		Title:    "Ablation 3: CoT recovery requires denoising training",
		PaperRef: "Observation #10 boundary condition",
		Run:      runAbl3,
	})
}

// runAbl3 compares the CoT-vs-direct resilience of two small math models
// trained from one initialization — one with the denoising corruption
// the shipped checkpoints use, one on clean chains only (checkpoints
// abl3-denoise and abl3-clean). It isolates the mechanism behind
// Observation #10: a model that has never seen a corrupted chain trusts
// its own (possibly faulty) intermediate tokens and loses the CoT
// advantage; denoising training restores it.
func runAbl3(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("abl3", "CoT denoising-training ablation")
	loader := cfg.loader()
	mt := pretrained.MathTask()

	variants := []struct {
		label, short, ckpt string
	}{
		{"denoising (shipped recipe)", "denoise", "abl3-denoise"},
		{"clean chains only", "clean", "abl3-clean"},
	}

	t := report.NewTable("Training", "Fault", "CoT NormAcc", "Direct NormAcc", "CoT - Direct")
	for _, v := range variants {
		m, err := loader.Load(v.ckpt)
		if err != nil {
			return nil, err
		}
		for _, fm := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
			var norms [2]float64
			for i, cot := range []bool{true, false} {
				suite := mt.Suite(cfg.Seed, cfg.Instances, cot)
				res, err := cfg.campaign(ctx, fmt.Sprintf("abl3 %s/%v/cot=%v", v.short, fm, cot), core.Campaign{
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
			o.set(fmt.Sprintf("%s.%v.gap", v.short, fm), norms[0]-norms[1])
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
