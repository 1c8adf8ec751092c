package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/pretrained"
	"repro/internal/report"
	"repro/internal/tasks"
)

func init() {
	register(Experiment{
		ID:       "fig18",
		Title:    "Figure 18: Beam search vs greedy search under computational faults",
		PaperRef: "Observation #9",
		Run:      runFig18,
	})
	register(Experiment{
		ID:       "fig19",
		Title:    "Figure 19: Resilience/runtime trade-off across beam counts",
		PaperRef: "§4.3.1",
		Run:      runFig19,
	})
	register(Experiment{
		ID:       "fig20",
		Title:    "Figure 20: Chain-of-Thought resilience",
		PaperRef: "Observation #10",
		Run:      runFig20,
	})
	register(Experiment{
		ID:       "fig21",
		Title:    "Figure 21: Resilience across datatypes (FP16 / FP32 / BF16)",
		PaperRef: "Observation #11",
		Run:      runFig21,
	})
}

// beamCampaign runs a 2bits-comp campaign with the given beam count.
func beamCampaign(ctx context.Context, cfg Config, m *model.Model, suite *tasks.Suite, beams int, tag string) (*campaignRun, error) {
	return cfg.campaign(ctx, fmt.Sprintf("beam %s/b%d", tag, beams), core.Campaign{
		Model: m, Suite: suite, Fault: faults.Comp2Bit,
		Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("beam", tag, fmt.Sprint(beams)),
		Gen:     gen.Settings{NumBeams: beams},
		Workers: cfg.Workers,
	})
}

func runFig18(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig18", "Beam vs greedy under 2bits-comp")
	loader := cfg.loader()

	configs := []struct {
		label, ckpt string
		suite       *tasks.Suite
		metric      metrics.Kind
	}{
		{"WMT16/ALMA-S", "wmt-alma", pretrained.TranslationTask().Suite(cfg.Seed, cfg.Instances), metrics.KindBLEU},
		{"WMT16/Qwen2.5-S", "wmt-qwens", pretrained.TranslationTask().Suite(cfg.Seed, cfg.Instances), metrics.KindBLEU},
		{"XLSum/Summarizer-S", "xlsum-summarizer", pretrained.SummTask().Suite(cfg.Seed, cfg.Instances), metrics.KindRouge1},
		{"XLSum/Llama3.1-S", "xlsum-llamas", pretrained.SummTask().Suite(cfg.Seed, cfg.Instances), metrics.KindRouge1},
	}
	t := report.NewTable("Workload", "Metric", "Greedy NormPerf", "Beam-6 NormPerf", "Beam - Greedy")
	for _, c := range configs {
		m, err := loader.Load(c.ckpt)
		if err != nil {
			return nil, err
		}
		var norms [2]float64
		for i, beams := range []int{1, 6} {
			res, err := beamCampaign(ctx, cfg, m, c.suite, beams, c.label)
			if err != nil {
				return nil, err
			}
			norms[i] = res.Normalized(c.metric).Value
		}
		t.Row(c.label, string(c.metric), norms[0], norms[1], norms[1]-norms[0])
		o.set(c.label+".greedy", norms[0])
		o.set(c.label+".beam6", norms[1])
	}
	o.Text = t.String() + "\nExpected shape (Obs #9): beam search matches or beats greedy for the\n" +
		"fine-tuned models — a corrupted token tanks its path's cumulative\n" +
		"probability and the search switches to an unaffected path.\n"
	return o, nil
}

func runFig19(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig19", "Beam-count trade-off")
	m, err := cfg.loader().Load("wmt-alma")
	if err != nil {
		return nil, err
	}
	suite := pretrained.TranslationTask().Suite(cfg.Seed, cfg.Instances)
	t := report.NewTable("Beams", "NormPerf (BLEU)", "Decode steps/trial", "Wall ms/trial")
	var perf, steps []float64
	for _, beams := range []int{1, 2, 4, 6, 8} {
		res, err := beamCampaign(ctx, cfg, m, suite, beams, "fig19")
		if err != nil {
			return nil, err
		}
		norm := res.Normalized(metrics.KindBLEU).Value
		t.Row(beams, norm, res.MeanSteps(), res.Wall.Seconds()*1000/float64(cfg.Trials))
		perf = append(perf, norm)
		steps = append(steps, res.MeanSteps())
		o.set(fmt.Sprintf("beam%d.norm", beams), norm)
		o.set(fmt.Sprintf("beam%d.steps", beams), res.MeanSteps())
	}
	o.Text = t.String() + fmt.Sprintf(
		"\nExpected shape (Fig. 19): normalized performance jumps from beam 1 to\n"+
			"2 (%.4f -> %.4f) then plateaus, while runtime keeps climbing\n"+
			"(%.0f -> %.0f steps); the sweet spot is num_beams = 2.\n",
		perf[0], perf[1], steps[0], steps[len(steps)-1])
	return o, nil
}

func runFig20(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig20", "Chain-of-Thought resilience")
	loader := cfg.loader()
	mt := pretrained.MathTask()
	cotSuite := mt.Suite(cfg.Seed, cfg.Instances, true)
	directSuite := mt.Suite(cfg.Seed, cfg.Instances, false)

	t := report.NewTable("Model", "Fault", "CoT NormAcc", "Direct NormAcc", "CoT - Direct")
	for _, entry := range []struct{ disp, ckpt string }{
		{"Qwen2.5-S", "math-qwens"},
		{"Falcon3-S", "math-falcons"},
	} {
		m, err := loader.Load(entry.ckpt)
		if err != nil {
			return nil, err
		}
		for _, fm := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
			var norms [2]float64
			for i, mode := range []struct {
				suite     *tasks.Suite
				reasoning bool
			}{{cotSuite, fm == faults.Comp2Bit}, {directSuite, false}} {
				res, err := cfg.campaign(ctx, fmt.Sprintf("fig20 %s/%v/%d", entry.disp, fm, i), core.Campaign{
					Model: m, Suite: mode.suite, Fault: fm,
					Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("fig20", entry.disp, fm.String(), fmt.Sprint(i)),
					// Computational faults in the CoT arm strike only the
					// reasoning-token iterations, as in §4.3.2.
					ReasoningOnly: mode.reasoning,
					Workers:       cfg.Workers,
				})
				if err != nil {
					return nil, err
				}
				norms[i] = res.Normalized(metrics.KindAccuracy).Value
			}
			t.Row(entry.disp, fm.String(), norms[0], norms[1], norms[0]-norms[1])
			o.set(fmt.Sprintf("%s.%v.cot", entry.disp, fm), norms[0])
			o.set(fmt.Sprintf("%s.%v.direct", entry.disp, fm), norms[1])
		}
	}
	o.Text = t.String() + "\nExpected shape (Obs #10): CoT ≥ direct. Computational faults inside the\n" +
		"reasoning chain barely move the final answer (norm ≈ 1.0) because the\n" +
		"model can re-derive from the operands; memory faults hurt both but CoT\n" +
		"retains an edge (paper: ~1.0 comp, ~0.9 mem).\n"
	return o, nil
}

func runFig21(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig21", "Datatype study")
	base, err := cfg.loader().Load("wmt-qwens")
	if err != nil {
		return nil, err
	}
	suite := pretrained.TranslationTask().Suite(cfg.Seed, cfg.Instances)

	t := report.NewTable("DType", "Fault", "NormPerf (BLEU)", "95% CI")
	for _, dt := range []numerics.DType{numerics.FP16, numerics.FP32, numerics.BF16} {
		m, err := model.WithDType(base, dt)
		if err != nil {
			return nil, err
		}
		for _, fm := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
			res, err := cfg.campaign(ctx, fmt.Sprintf("fig21 %v/%v", dt, fm), core.Campaign{
				Model: m, Suite: suite, Fault: fm,
				Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("fig21", dt.String(), fm.String()),
				Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			ratio := res.Normalized(metrics.KindBLEU)
			t.Row(dt.String(), fm.String(), ratio.Value, fmt.Sprintf("[%.3f, %.3f]", ratio.Lo, ratio.Hi))
			o.set(fmt.Sprintf("%s.%v", dt, fm), ratio.Value)
		}
	}
	o.Text = t.String() + "\nExpected shape (Obs #11): FP16 (5 exponent bits, max 65504) is the most\n" +
		"resilient; BF16 (8 exponent bits, max 3.4e38) the most vulnerable; FP32\n" +
		"sits between — the representable range, not the bit count, dominates.\n"
	return o, nil
}
