package experiments

import (
	"context"
	"fmt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:       "obs4",
		Title:    "Observation #4: fine-tuned models vs general-purpose models under memory faults",
		PaperRef: "§4.2.2, Figure 3(d)",
		Run:      runObs4,
	})
}

// runObs4 isolates the right-hand bars of Figure 3(d): on the
// translation and summarization workloads, the task-fine-tuned
// checkpoints (ALMA-S, Summarizer-S) are compared against their
// general-purpose counterparts under 2-bit memory faults. The paper
// attributes the fine-tuned models' edge to their stronger grip on
// output structure and fluency; in this reproduction that manifests as
// sharper output distributions (lower-entropy logits survive larger
// perturbations before the argmax flips).
func runObs4(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("obs4", "Fine-tuned vs general under memory faults")
	genModels, genSuites, err := generativeRoster(cfg)
	if err != nil {
		return nil, err
	}

	groups := []struct {
		suite     string
		fineTuned string
	}{
		{"wmt16", "ALMA-S"},
		{"xlsum", "Summarizer-S"},
	}
	t := report.NewTable("Suite", "Model", "Role", "Fault-free", "NormPerf (2bits-mem)")
	for _, g := range groups {
		suite := genSuites[g.suite]
		var ftNorm, genSum float64
		genN := 0
		for _, nm := range genModels[g.suite] {
			res, err := cfg.campaign(ctx, fmt.Sprintf("obs4 %s/%s", g.suite, nm.Display), core.Campaign{
				Model: nm.Model, Suite: suite, Fault: faults.Mem2Bit,
				Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("obs4", g.suite, nm.Display),
				Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			role := "general"
			if nm.Display == g.fineTuned {
				role = "fine-tuned"
			}
			norm := res.NormalizedPrimary().Value
			t.Row(g.suite, nm.Display, role,
				res.Baseline.MetricMeans[suite.Metrics[0]], norm)
			if nm.Display == g.fineTuned {
				ftNorm = norm
			} else {
				genSum += norm
				genN++
			}
		}
		o.set(g.suite+".finetuned", ftNorm)
		o.set(g.suite+".general_avg", genSum/float64(genN))
	}
	o.Text = t.String() + "\nExpected shape (Obs #4): the fine-tuned checkpoint matches or beats the\n" +
		"general-purpose models' normalized performance under memory faults,\n" +
		"on top of its (much) higher fault-free quality — so its absolute\n" +
		"faulty-output quality dominates on both axes.\n"
	return o, nil
}
