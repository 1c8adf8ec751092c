package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/pretrained"
	"repro/internal/quant"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tasks"
)

func init() {
	register(Experiment{
		ID:       "fig13",
		Title:    "Figure 13: Weight and neuron value distributions of the three model families",
		PaperRef: "Observation #3",
		Run:      runFig13,
	})
	register(Experiment{
		ID:       "fig14",
		Title:    "Figure 14: MoE vs dense resilience on multiple-choice and generative tasks",
		PaperRef: "Observation #5",
		Run:      runFig14,
	})
	register(Experiment{
		ID:       "fig15",
		Title:    "Figure 15: Faults in MoE gate layers change expert selection and outputs",
		PaperRef: "Observation #6",
		Run:      runFig15,
	})
	register(Experiment{
		ID:       "fig16",
		Title:    "Figure 16: Resilience across model scales",
		PaperRef: "Observation #7",
		Run:      runFig16,
	})
	register(Experiment{
		ID:       "fig17",
		Title:    "Figure 17: Resilience of GPTQ-style quantized models",
		PaperRef: "Observation #8",
		Run:      runFig17,
	})
}

func runFig13(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig13", "Weight/neuron distributions (down_proj, last block)")
	profs, err := mcModels(cfg)
	if err != nil {
		return nil, err
	}
	suite, err := tasks.NewMCSuite("mmlu", cfg.Seed, 1)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, fam := range model.Families {
		m := profs[fam]
		last := m.Cfg.NBlocks - 1
		w, err := m.Layer(model.LayerRef{Block: last, Kind: model.KindDown, Expert: -1})
		if err != nil {
			return nil, err
		}
		// Weights.
		var wvals []float64
		for r := 0; r < w.In(); r++ {
			for c := 0; c < w.Out(); c++ {
				wvals = append(wvals, w.Get(r, c))
			}
		}
		ws := stats.Summarize(wvals)
		// Neurons: capture the layer's outputs over a sample prompt.
		ref := model.LayerRef{Block: last, Kind: model.KindDown, Expert: -1}
		var nvals []float64
		for _, v := range tracedRun(m, model.Observers{}, suite.Instances[0].Prompt, 0).Layer(ref).Data {
			nvals = append(nvals, float64(v))
		}
		ns := stats.Summarize(nvals)

		fmt.Fprintf(&b, "%s:\n  weights: std %.4f  p01 %.4f  p99 %.4f  range [%.4f, %.4f]\n",
			fam, ws.Std, ws.P01, ws.P99, ws.Min, ws.Max)
		fmt.Fprintf(&b, "  neurons: std %.4f  p01 %.4f  p99 %.4f\n", ns.Std, ns.P01, ns.P99)
		b.WriteString(histogramArt(wvals, ws))
		o.set(fam.String()+".weight_std", ws.Std)
	}
	b.WriteString("\nExpected shape: the three families have visibly different widths\n" +
		"(QwenS narrow Gaussian < LlamaS Laplace < FalconS wide uniform), the\n" +
		"independent variable behind their differing resilience (Obs #3).\n")
	o.Text = b.String()
	return o, nil
}

// histogramArt renders a 31-bin histogram over ±3 std.
func histogramArt(vals []float64, s stats.Summary) string {
	lo, hi := -3*s.Std, 3*s.Std
	h := stats.NewHistogram(vals, lo, hi, 31)
	fr := h.Fractions()
	maxf := 0.0
	for _, f := range fr {
		if f > maxf {
			maxf = f
		}
	}
	var b strings.Builder
	b.WriteString("  ")
	levels := []rune(" ▁▂▃▄▅▆▇█")
	for _, f := range fr {
		idx := 0
		if maxf > 0 {
			idx = int(f / maxf * float64(len(levels)-1))
		}
		b.WriteRune(levels[idx])
	}
	fmt.Fprintf(&b, "  (bins over ±3σ, under %d over %d)\n", h.Under, h.Over)
	return b.String()
}

// moeModels builds the dense model and its 2-of-8 MoE counterpart with
// identical attention weights (the MoE adds a router and 8 experts).
func moeModels(cfg Config) (dense, moe *model.Model, err error) {
	vocab := tasks.GeneralVocab()
	base := model.StandardConfig("dense", vocab.Size(), numerics.BF16)
	dense, err = model.Build(model.Spec{Config: base, Family: model.LlamaS, Seed: cfg.Seed + 101})
	if err != nil {
		return nil, nil, err
	}
	moe, err = model.Build(model.Spec{Config: model.MoEConfig(base), Family: model.LlamaS, Seed: cfg.Seed + 101})
	if err != nil {
		return nil, nil, err
	}
	return dense, moe, nil
}

func runFig14(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig14", "MoE vs dense resilience")
	dense, moe, err := moeModels(cfg)
	if err != nil {
		return nil, err
	}
	mmlu, err := tasks.NewMCSuite("mmlu", cfg.Seed, cfg.Instances)
	if err != nil {
		return nil, err
	}
	arc, err := tasks.NewMCSuite("arc", cfg.Seed, cfg.Instances)
	if err != nil {
		return nil, err
	}
	trans, qa := selfRefGenSuites(cfg)
	suites := []*tasks.Suite{mmlu, arc, trans, qa}

	t := report.NewTable("Suite", "Type", "Dense NormPerf", "MoE NormPerf", "MoE - Dense")
	for _, suite := range suites {
		var norms [2]float64
		for i, m := range []*model.Model{dense, moe} {
			res, err := cfg.campaign(ctx, fmt.Sprintf("fig14 %s/%s", suite.Name, m.Cfg.Name), core.Campaign{
				Model: m, Suite: suite, Fault: faults.Mem2Bit,
				Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("fig14", suite.Name, fmt.Sprint(i)),
				Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			if suite.Type == tasks.MultipleChoice {
				norms[i] = mcNormalized(res.Result)
			} else {
				norms[i] = res.MeanNormalized()
			}
		}
		t.Row(suite.Name, suite.Type.String(), norms[0], norms[1], norms[1]-norms[0])
		o.set(suite.Name+".dense", norms[0])
		o.set(suite.Name+".moe", norms[1])
	}
	o.Text = t.String() + "\nExpected shape (Obs #5): MoE slightly WORSE than dense on multiple-\n" +
		"choice (router corruption hits the single scoring pass), but BETTER on\n" +
		"generative tasks (later iterations route around the faulty expert).\n"
	return o, nil
}

func runFig15(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig15", "Gate-layer faults")
	_, moe, err := moeModels(cfg)
	if err != nil {
		return nil, err
	}
	trans, _ := selfRefGenSuites(cfg)
	res, err := cfg.campaign(ctx, "fig15 gate-only", core.Campaign{
		Model: moe, Suite: trans, Fault: faults.Mem2Bit,
		Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("fig15"),
		Filter: faults.GateOnly, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	expertChanged := res.ExpertChangedRate()
	// Among expert-changed trials, how many changed the output?
	changedGivenExpert := 0.0
	nExpert := 0
	for _, tr := range res.Trials {
		if tr.ExpertChanged {
			nExpert++
			if tr.Outcome.Changed {
				changedGivenExpert++
			}
		}
	}
	if nExpert > 0 {
		changedGivenExpert /= float64(nExpert)
	}
	bleu := res.Normalized(metrics.KindBLEU)
	chrf := res.Normalized(metrics.KindChrF)

	var b strings.Builder
	fmt.Fprintf(&b, "2bits-mem faults injected ONLY into gate (router) layers, %d trials\n\n", len(res.Trials))
	fmt.Fprintf(&b, "expert selection changed:            %5.1f%%  (paper: 78.6%%)\n", expertChanged*100)
	fmt.Fprintf(&b, "output changed | expert changed:     %5.1f%%  (paper: 47.4%%)\n", changedGivenExpert*100)
	fmt.Fprintf(&b, "BLEU degradation:                    %5.1f%%  (paper: 2.1%%)\n", (1-bleu.Value)*100)
	fmt.Fprintf(&b, "chrF++ degradation:                  %5.1f%%  (paper: 1.8%%)\n", (1-chrf.Value)*100)
	b.WriteString("\nObservation #6: gate layers are a distinct, security-relevant attack\nsurface — corrupting them changes outputs without touching any expert.\n")
	o.Text = b.String()
	o.set("expert_changed", expertChanged)
	o.set("output_changed_given_expert", changedGivenExpert)
	o.set("bleu_norm", bleu.Value)
	o.set("chrf_norm", chrf.Value)
	return o, nil
}

func runFig16(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig16", "Resilience across model scales")
	vocab := tasks.GeneralVocab()
	base := model.StandardConfig("scale", vocab.Size(), numerics.BF16)
	scales := []struct {
		label  string
		width  float64
		blocks int
	}{
		{"1.5B-S", 0.5, 2}, {"3B-S", 0.75, 3}, {"7B-S", 1.0, 4},
		{"14B-S", 1.5, 5}, {"32B-S", 2.0, 6},
	}
	mmlu, err := tasks.NewMCSuite("mmlu", cfg.Seed, cfg.Instances)
	if err != nil {
		return nil, err
	}
	trans, _ := selfRefGenSuites(cfg)

	t := report.NewTable("Scale", "Params", "mmlu 2bits-mem", "mmlu 2bits-comp", "gen 2bits-mem")
	var norms []float64
	for _, sc := range scales {
		cfgM := model.ScaledConfig(base, sc.width, sc.blocks)
		cfgM.Name = sc.label
		m, err := model.Build(model.Spec{Config: cfgM, Family: model.QwenS, Seed: cfg.Seed + 7})
		if err != nil {
			return nil, err
		}
		row := []any{sc.label, cfgM.NumParams()}
		for _, run := range []struct {
			suite *tasks.Suite
			fm    faults.Model
		}{{mmlu, faults.Mem2Bit}, {mmlu, faults.Comp2Bit}, {trans, faults.Mem2Bit}} {
			res, err := cfg.campaign(ctx, fmt.Sprintf("fig16 %s/%s/%v", sc.label, run.suite.Name, run.fm), core.Campaign{
				Model: m, Suite: run.suite, Fault: run.fm,
				Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("fig16", sc.label, run.fm.String()),
				Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			v := res.MeanNormalized()
			if run.suite.Type == tasks.MultipleChoice {
				v = mcNormalized(res.Result)
			}
			row = append(row, v)
			if run.fm == faults.Mem2Bit && run.suite == mmlu {
				norms = append(norms, v)
				o.set(sc.label, v)
			}
		}
		t.Row(row...)
	}
	spread := stats.Summarize(norms)
	o.set("spread_std", spread.Std)
	o.Text = t.String() + fmt.Sprintf(
		"\nnormalized-performance spread across scales (mmlu/mem): std %.4f\n"+
			"Expected shape (Obs #7): no clear relationship between scale and\nresilience — the spread stays within campaign noise.\n", spread.Std)
	return o, nil
}

func runFig17(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig17", "Quantized-model resilience")
	m, err := cfg.loader().Load("wmt-qwens")
	if err != nil {
		return nil, err
	}
	suite := pretrained.TranslationTask().Suite(cfg.Seed, cfg.Instances)

	variants := []struct {
		label string
		build func() (*model.Model, error)
	}{
		{"BF16", func() (*model.Model, error) { return m, nil }},
		{"GPTQ-8bit", func() (*model.Model, error) { return quant.QuantizeModel(m, 8) }},
		{"GPTQ-4bit", func() (*model.Model, error) { return quant.QuantizeModel(m, 4) }},
	}
	t := report.NewTable("Variant", "Fault-free BLEU", "NormPerf (2bits-mem)", "95% CI")
	for _, v := range variants {
		vm, err := v.build()
		if err != nil {
			return nil, err
		}
		res, err := cfg.campaign(ctx, "fig17 "+v.label, core.Campaign{
			Model: vm, Suite: suite, Fault: faults.Mem2Bit,
			Trials: cfg.Trials, Seed: cfg.Seed ^ hash2("fig17", v.label),
			Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		ratio := res.Normalized(metrics.KindBLEU)
		t.Row(v.label, res.Baseline.MetricMeans[metrics.KindBLEU], ratio.Value,
			fmt.Sprintf("[%.3f, %.3f]", ratio.Lo, ratio.Hi))
		o.set(v.label, ratio.Value)
	}
	o.Text = t.String() + "\nExpected shape (Obs #8): both quantized variants stay near 1.0 —\n" +
		"an INT4/INT8 code flip moves a weight by at most scale*2^(bits-1),\n" +
		"never to ~1e38, so quantized models are MORE resilient (counter to\n" +
		"intuition), while BF16 degrades.\n"
	return o, nil
}
