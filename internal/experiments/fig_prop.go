package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/outcome"
	"repro/internal/pretrained"
)

func init() {
	register(Experiment{
		ID:       "fig5",
		Title:    "Figure 5: Propagation trace of a memory fault (column → whole tensor)",
		PaperRef: "§4.1.1",
		Run:      runFig5,
	})
	register(Experiment{
		ID:       "fig6",
		Title:    "Figure 6: Propagation trace of a computational fault (single row, masked by normalization)",
		PaperRef: "§4.1.1",
		Run:      runFig6,
	})
	register(Experiment{
		ID:       "fig7",
		Title:    "Figure 7: Examples of distorted and subtly wrong outputs",
		PaperRef: "§4.1.1",
		Run:      runFig7,
	})
	register(Experiment{
		ID:       "fig12",
		Title:    "Figure 12: A fault in the reasoning chain propagates to the final answer",
		PaperRef: "§4.1.2",
		Run:      runFig12,
	})
}

// traceSetup prepares the model, prompt, and observed layers shared by
// the two propagation experiments: the paper injects into up_proj of a
// middle block at weight/neuron position (20, 20) and watches the fault
// spread through the following layers.
func traceSetup(cfg Config) (*model.Model, []int, []model.LayerRef, error) {
	m, err := cfg.loader().Load("wmt-alma")
	if err != nil {
		return nil, nil, nil, err
	}
	suite := pretrained.TranslationTask().Suite(cfg.Seed, 1)
	prompt := suite.Instances[0].Prompt
	blk := m.Cfg.NBlocks / 2
	if blk >= m.Cfg.NBlocks-1 {
		blk = m.Cfg.NBlocks - 2
	}
	refs := []model.LayerRef{
		{Block: blk, Kind: model.KindUp, Expert: -1},
		{Block: blk, Kind: model.KindDown, Expert: -1},
		{Block: blk + 1, Kind: model.KindUp, Expert: -1},
		{Block: blk + 1, Kind: model.KindDown, Expert: -1},
	}
	return m, prompt, refs, nil
}

func runFig5(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig5", "Memory-fault propagation")
	m, prompt, refs, err := traceSetup(cfg)
	if err != nil {
		return nil, err
	}
	const maxNew = 8

	clean := tracedRun(m, model.Observers{}, prompt, maxNew)

	// MSB-of-exponent flip of weight (20, 20) in up_proj, as in the paper.
	msb := m.Cfg.DType.Bits() - 2
	site := faults.Site{
		Fault: faults.Mem2Bit, Layer: refs[0],
		Row: 20, Col: 20, Bits: []int{msb, msb - 3},
	}
	before, after, err := faults.FaultValue(m, site)
	if err != nil {
		return nil, err
	}
	inj, err := faults.New(m, site, len(prompt))
	if err != nil {
		return nil, err
	}
	faulty := tracedRun(m, inj.Observers(), prompt, maxNew)

	var b strings.Builder
	fmt.Fprintf(&b, "injected: %v (weight %.4g -> %.4g)\n", site, before, after)
	b.WriteString("(masks compare the prompt-prefill rows, where faulty and fault-free\n runs see identical inputs — a single forward pass, as in the paper)\n\n")
	var stats []float64
	for _, ref := range refs {
		txt, st := maskSummary(ref.String(),
			subRows(faulty.Layer(ref), len(prompt)),
			subRows(clean.Layer(ref), len(prompt)))
		b.WriteString(txt)
		stats = append(stats, st.CorruptedFrac)
	}
	b.WriteString("\nfaulted-layer output heatmap (|value|, '#' = fault-magnitude):\n")
	b.WriteString(faulty.Layer(refs[0]).Heatmap(16, 50))
	b.WriteString("\nExpected shape: a single corrupted COLUMN in the faulted layer's output,\n" +
		"then the fault covers (nearly) the whole tensor one layer later (paper Fig. 5).\n")
	o.Text = b.String()
	o.set("faulted_layer_frac", stats[0])
	o.set("next_layer_frac", stats[1])
	o.set("next_block_frac", stats[2])
	return o, nil
}

func runFig6(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig6", "Computational-fault propagation")
	m, prompt, refs, err := traceSetup(cfg)
	if err != nil {
		return nil, err
	}
	const maxNew = 8

	clean := tracedRun(m, model.Observers{}, prompt, maxNew)

	// Strike one neuron during prompt processing (token position
	// len(prompt)/2), so the single-forward-pass propagation is visible
	// across the prefill rows.
	msb := m.Cfg.DType.Bits() - 2
	site := faults.Site{
		Fault: faults.Comp2Bit, Layer: refs[0],
		Col: 20, Bits: []int{msb, msb - 3}, GenIter: len(prompt) / 2,
	}
	inj, err := faults.New(m, site, 0)
	if err != nil {
		return nil, err
	}
	faulty := tracedRun(m, inj.Observers(), prompt, maxNew)
	fired := inj.Fired

	var b strings.Builder
	fmt.Fprintf(&b, "injected: %v at prompt position %d (fired=%v)\n\n", site, site.GenIter, fired)
	var stats []float64
	for _, ref := range refs {
		ft := subRows(faulty.Layer(ref), len(prompt))
		ct := subRows(clean.Layer(ref), len(prompt))
		txt, st := maskSummary(ref.String(), ft, ct)
		b.WriteString(txt)
		fmt.Fprintf(&b, "%-28s max |Δ| = %.4g\n", "", maxAbsDiff(ft, ct))
		stats = append(stats, st.CorruptedFrac)
	}
	b.WriteString("\nExpected shape: the transient corrupts a single ROW (one token's\n" +
		"activations); RMSNorm squashes the huge value so later layers see a\n" +
		"bounded perturbation confined to that token position until residual\n" +
		"mixing (paper Fig. 6).\n")
	o.Text = b.String()
	o.set("faulted_layer_frac", stats[0])
	o.set("next_layer_frac", stats[1])
	o.set("next_block_frac", stats[2])
	return o, nil
}

// findExamples runs memory-fault trials on the math task until it has a
// subtly-wrong and (if possible) a distorted example.
func findExamples(ctx context.Context, cfg Config, trials int) (*campaignRun, error) {
	loader := cfg.loader()
	m, err := loader.Load("math-qwens")
	if err != nil {
		return nil, err
	}
	suite := pretrained.MathTask().Suite(cfg.Seed, minInt(cfg.Instances, 6), true)
	return cfg.campaign(ctx, "examples math/mem-2bit", core.Campaign{
		Model: m, Suite: suite, Fault: faults.Mem2Bit,
		Trials: trials, Seed: cfg.Seed + 7, Workers: cfg.Workers,
	})
}

func runFig7(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig7", "Examples of distorted and subtly wrong outputs")
	res, err := findExamples(ctx, cfg, maxInt(cfg.Trials, 200))
	if err != nil {
		return nil, err
	}
	suite := res.Campaign.Suite
	var b strings.Builder
	var haveSubtle, haveDistorted bool
	for _, tr := range res.Trials {
		if (tr.Outcome.Class == outcome.SDCSubtle && !haveSubtle) ||
			(tr.Outcome.Class == outcome.SDCDistorted && !haveDistorted) {
			base := res.Baseline.Instances[tr.Instance]
			inst := suite.Instances[tr.Instance]
			fmt.Fprintf(&b, "--- %v example (site %v) ---\n", tr.Outcome.Class, tr.Site)
			fmt.Fprintf(&b, "Question:  %s\n", suite.Vocab.DecodeAll(inst.Prompt[1:]))
			fmt.Fprintf(&b, "Reference: %s\n", inst.Reference)
			fmt.Fprintf(&b, "Baseline:  %s\n", base.Text)
			fmt.Fprintf(&b, "Faulty:    %s\n\n", rerunFaulty(res.Result, tr))
			if tr.Outcome.Class == outcome.SDCSubtle {
				haveSubtle = true
			} else {
				haveDistorted = true
			}
		}
		if haveSubtle && haveDistorted {
			break
		}
	}
	if !haveSubtle && !haveDistorted {
		b.WriteString("no SDC found at this trial budget; raise -trials\n")
	}
	tally := res.Tally()
	fmt.Fprintf(&b, "campaign tally: %+v\n", tally)
	o.Text = b.String()
	o.set("subtle", float64(tally.Subtle))
	o.set("distorted", float64(tally.Distorted))
	return o, nil
}

// rerunFaulty re-executes a trial to obtain its output text (trials store
// metrics, not full outputs, to keep campaign memory flat).
func rerunFaulty(res *core.Result, tr core.Trial) string {
	c := res.Campaign
	inst := c.Suite.Instances[tr.Instance]
	inj, err := faults.New(c.Model, tr.Site, len(inst.Prompt))
	if err != nil {
		return "(rerun failed: " + err.Error() + ")"
	}
	return core.RerunInstance(c.Model, inj.Observers(), c.Suite, &inst)
}

func runFig12(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig12", "Reasoning-chain corruption example")
	res, err := findExamples(ctx, cfg, maxInt(cfg.Trials, 200))
	if err != nil {
		return nil, err
	}
	suite := res.Campaign.Suite
	var b strings.Builder
	found := false
	for _, tr := range res.Trials {
		if tr.Outcome.Class != outcome.SDCSubtle || tr.AnswerOK {
			continue
		}
		base := res.Baseline.Instances[tr.Instance]
		inst := suite.Instances[tr.Instance]
		faultyText := rerunFaulty(res.Result, tr)
		if faultyText == base.Text {
			continue
		}
		fmt.Fprintf(&b, "Question:        %s\n", suite.Vocab.DecodeAll(inst.Prompt[1:]))
		fmt.Fprintf(&b, "Gold answer:     %s\n", inst.Reference)
		fmt.Fprintf(&b, "Fault-free CoT:  %s\n", base.Text)
		fmt.Fprintf(&b, "Faulty CoT:      %s\n", faultyText)
		fmt.Fprintf(&b, "Diverging words: %s\n", diffWords(base.Text, faultyText))
		fmt.Fprintf(&b, "(site %v)\n", tr.Site)
		found = true
		break
	}
	if !found {
		b.WriteString("no reasoning-chain SDC found at this budget; raise -trials\n")
	}
	o.Text = b.String()
	o.set("found", b2n(found))
	return o, nil
}

// diffWords marks the word positions where two texts diverge.
func diffWords(a, b string) string {
	aw, bw := strings.Fields(a), strings.Fields(b)
	var out []string
	for i := 0; i < maxInt(len(aw), len(bw)); i++ {
		av, bv := "", ""
		if i < len(aw) {
			av = aw[i]
		}
		if i < len(bw) {
			bv = bw[i]
		}
		if av != bv {
			out = append(out, fmt.Sprintf("pos %d: %q -> %q", i, av, bv))
		}
	}
	return strings.Join(out, "; ")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func b2n(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
