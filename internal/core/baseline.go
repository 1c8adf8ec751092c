// Package core is the paper's methodology as a library: it evaluates
// fault-free baselines, runs statistical fault-injection campaigns over
// (model, task-suite, fault-model) configurations with a worker pool, and
// aggregates the outcomes into the normalized-performance numbers, SDC
// breakdowns, and bit-position profiles that the figures report.
package core

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/abft"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// AnswerChecker decides whether a generated token sequence answers an
// instance correctly — the Masked/SDC criterion for direct-answer tasks.
type AnswerChecker func(inst *tasks.Instance, generated []int) bool

// DefaultChecker derives the answer criterion from the suite: math suites
// compare the extracted number after the '#' marker against the gold
// answer; other generative suites compare the full text against the
// reference (so Masked = unchanged output, the strictest reading).
func DefaultChecker(suite *tasks.Suite) AnswerChecker {
	if strings.HasPrefix(suite.Name, "gsm8k") {
		return func(inst *tasks.Instance, generated []int) bool {
			want, err := strconv.Atoi(inst.Reference)
			got := tasks.ExtractAnswer(suite.Vocab, generated)
			return err == nil && got >= 0 && got == want
		}
	}
	return func(inst *tasks.Instance, generated []int) bool {
		return suite.Vocab.Decode(generated) == inst.Reference
	}
}

// InstanceBaseline is the fault-free result for one instance.
type InstanceBaseline struct {
	// Choice is the selected option (multiple-choice only).
	Choice int
	// Tokens / Text are the fault-free generation (generative only).
	Tokens []int
	Text   string
	// Reference is the effective reference text: the instance gold
	// reference, or the fault-free output when the instance has none
	// (self-relative evaluation for the untrained profile models).
	Reference string
	// Metrics are the fault-free quality scores against Reference.
	Metrics map[metrics.Kind]float64
	// AnswerOK reports whether the fault-free answer was correct.
	AnswerOK bool
	// ReasoningLen is the generated-token count before the math answer
	// marker (math suites only).
	ReasoningLen int
	// ExpertTrace records MoE expert selections per block (MoE greedy
	// decoding only).
	ExpertTrace [][]int
	// Steps counts decode steps (the runtime proxy of Figure 19).
	Steps int

	// rec is the generative inference trials fork (gen.Record), with depth
	// planes from Campaign.strikeFloor when they may fork in depth, and a
	// ledger under all-layer ABFT. Baseline-only; nil after Scores.
	rec *gen.Record
	// capture holds the instance's clean per-layer activations when the
	// runner traces the campaign: the propagation probes of sampled
	// trials diff against it, so tracing never re-runs a clean forward.
	// Sealed (read-only) before workers start.
	capture *trace.Capture
}

// Baseline is the fault-free evaluation of a suite on a model.
type Baseline struct {
	Suite     *tasks.Suite
	Instances []InstanceBaseline
	// MetricMeans holds the mean fault-free score per metric — the
	// P_fault_free denominators of the normalization.
	MetricMeans map[metrics.Kind]float64
	// GoldAccuracy is the fault-free accuracy against gold answers.
	GoldAccuracy float64
	// TotalSteps sums decode steps over all instances.
	TotalSteps int
}

// Scores returns a copy of b that keeps every exported field — the
// fault-free outputs and scores a Result is read for — and drops the
// engine's working set: each instance's record and activation capture,
// which only a running campaign reads. A Result carries this copy, so
// holding Results does not pin megabytes of KV cache per campaign;
// BaselineReady and WithBaseline carry the full baseline, which is what a
// runner needs to fork trials from.
func (b *Baseline) Scores() *Baseline {
	s := *b
	s.Instances = make([]InstanceBaseline, len(b.Instances))
	for i, ib := range b.Instances {
		ib.rec, ib.capture = nil, nil
		s.Instances[i] = ib
	}
	return &s
}

// EvalBaseline runs the suite fault-free on m with the given generation
// settings (NumBeams etc.; MaxNewTokens is set per instance).
func EvalBaseline(m *model.Model, suite *tasks.Suite, gs gen.Settings, check AnswerChecker) *Baseline {
	return evalBaseline(m, suite, gs, check, baselineOpts{})
}

// EvalBaseline evaluates the campaign's fault-free baseline with its
// effective decoding settings and answer checker — the same evaluation
// every runner of the campaign performs. The fabric coordinator uses it
// to complete the merged distributed Result: the baseline is
// deterministic, so the coordinator's copy is bit-identical to the one
// each worker computed locally.
func (c Campaign) EvalBaseline() *Baseline {
	gs, check := c.effective()
	return evalBaseline(c.Model, c.Suite, gs, check, baselineOpts{})
}

// baselineOpts is what a runner asks of the baseline beyond its scores.
// None of it changes an output.
type baselineOpts struct {
	// capMinPos, when non-nil, records each instance's clean per-layer
	// outputs from position capMinPos(inst) onward (via a temporary hook on
	// m) into InstanceBaseline.capture for the propagation probes.
	capMinPos func(inst *tasks.Instance) int
	// depthFrom, when non-nil, records each instance's depth planes from
	// position depthFrom(inst) on in its record.
	depthFrom func(inst *tasks.Instance) int
	// ledger, when non-nil, runs each instance under a detect-only
	// all-layer checker over this table, summed under tol, and keeps its
	// counts in the record's ledger.
	ledger *abft.Table
	tol    float64
	// onInstance, when non-nil, is called as soon as instance i is
	// evaluated, with ib pointing at it in the baseline being built — its
	// final place, which nothing writes again. Returning false stops the
	// evaluation, which then returns nil.
	onInstance func(i int, ib *InstanceBaseline) bool
}

// evalBaseline is EvalBaseline plus what a runner's trials read from it
// (baselineOpts).
func evalBaseline(m *model.Model, suite *tasks.Suite, gs gen.Settings, check AnswerChecker, opts baselineOpts) *Baseline {
	if check == nil {
		check = DefaultChecker(suite)
	}
	b := &Baseline{Suite: suite, Instances: make([]InstanceBaseline, len(suite.Instances))}
	for i := range suite.Instances {
		inst := &suite.Instances[i]
		var cc *trace.Capture
		if opts.capMinPos != nil {
			cc = trace.NewCapture(opts.capMinPos(inst))
			m.AddHook(cc.Hook())
		}
		var ro gen.RecordOpts
		if opts.ledger != nil {
			// An all-layer checker names no site the table could lack: no error.
			ro.Ledger, _ = abft.Protection{AllLayers: true}.Checker(opts.ledger)
			ro.Tol = opts.tol
		}
		var st *model.State
		if opts.depthFrom != nil {
			st = m.NewState()
			st.RecordDepth(opts.depthFrom(inst))
		}
		ib := evalInstance(m, suite, inst, gs, check, true, st, &ro, nil)
		if cc != nil {
			m.PopHook()
			cc.Seal()
			ib.capture = cc
		}
		b.Instances[i] = ib
		if opts.onInstance != nil && !opts.onInstance(i, &b.Instances[i]) {
			return nil
		}
	}
	b.MetricMeans = map[metrics.Kind]float64{}
	goldHits := 0
	for i := range b.Instances {
		ib := &b.Instances[i]
		if ib.AnswerOK {
			goldHits++
		}
		for k, v := range ib.Metrics {
			b.MetricMeans[k] += v
		}
		b.TotalSteps += ib.Steps
	}
	n := float64(len(suite.Instances))
	for k := range b.MetricMeans {
		b.MetricMeans[k] /= n
	}
	b.GoldAccuracy = float64(goldHits) / n
	return b
}

// evalInstance runs one instance on the (possibly fault-armed) model.
// selfRefOK makes an empty instance reference count as a correct answer
// (fault-free runs define the reference). ro, when non-nil, additionally
// keeps what later trials fork from (InstanceBaseline.rec, gen.NewRecord)
// in the returned baseline. A generative instance runs on st — a fresh
// state of m recording its depth planes — or, when nil, on a fresh one.
// sp, when non-nil, receives the phase timings (prefill/decode/classify)
// of a run that keeps no record.
func evalInstance(m *model.Model, suite *tasks.Suite, inst *tasks.Instance, gs gen.Settings, check AnswerChecker, selfRefOK bool, st *model.State, ro *gen.RecordOpts, sp *spanTimes) InstanceBaseline {
	var ib InstanceBaseline
	if suite.Type == tasks.MultipleChoice {
		decodeStart := now()
		choice, _ := gen.ChooseOption(m, inst.Prompt, inst.Options)
		if sp != nil {
			// Option scoring interleaves prefill and scoring passes; the
			// whole evaluation reports as one decode span (steps 0, so no
			// per-token observation is derived).
			sp.decode += since(decodeStart)
		}
		return choiceBaseline(inst, choice)
	}

	gs.MaxNewTokens = inst.MaxNew
	gs.MinNewTokens = inst.MinNew
	if st == nil {
		st = m.NewState()
	}
	// Expert-trace comparison is only defined for the single-path greedy
	// mode used by the MoE study (beam search forks states).
	expertTrace := m.Cfg.IsMoE() && gs.NumBeams <= 1
	if expertTrace {
		st.EnableExpertTrace()
	}
	var res gen.Result
	if ro != nil {
		ib.rec, res = gen.NewRecord(m, st, inst.Prompt, gs, *ro)
	} else {
		prefillStart := now()
		logits := st.Prefill(inst.Prompt)
		if sp != nil {
			sp.prefill += since(prefillStart)
		}
		decodeStart := now()
		res = gen.GenerateFrom(m, st, logits, gs)
		if sp != nil {
			sp.decode += since(decodeStart)
			sp.steps = res.Steps
		}
	}
	res.Steps += len(inst.Prompt)
	if expertTrace {
		ib.ExpertTrace = st.ExpertTrace
	}
	classifyStart := now()
	finishGenerative(&ib, suite, inst, res, check, selfRefOK, nil)
	if sp != nil {
		sp.classify += since(classifyStart)
	}
	return ib
}

// finishGenerative scores a completed generation into ib — shared by the
// full path above and the campaign's decode-loop rows. memo, when
// non-nil, is the instance's baseline: a generation of its very tokens
// takes its Text and, against the same reference and answering alike,
// its Metrics — pure functions of (tokens, reference, answer) — instead
// of decoding and scoring them again.
func finishGenerative(ib *InstanceBaseline, suite *tasks.Suite, inst *tasks.Instance, res gen.Result, check AnswerChecker, selfRefOK bool, memo *InstanceBaseline) {
	same := memo != nil && slices.Equal(res.Tokens, memo.Tokens)
	ib.Tokens = res.Tokens
	if same {
		ib.Text = memo.Text
	} else {
		ib.Text = suite.Vocab.Decode(res.Tokens)
	}
	ib.Steps = res.Steps

	ib.Reference = inst.Reference
	if ib.Reference == "" {
		ib.Reference = ib.Text
		ib.AnswerOK = selfRefOK
	} else {
		ib.AnswerOK = check(inst, res.Tokens)
	}
	if same && ib.Reference == memo.Reference && ib.AnswerOK == memo.AnswerOK {
		ib.Metrics = memo.Metrics
	} else {
		ib.Metrics = scoreGenerative(suite, ib.Text, ib.Reference, ib.AnswerOK)
	}
	if strings.HasPrefix(suite.Name, "gsm8k") {
		ib.ReasoningLen = tasks.ReasoningLength(suite.Vocab, res.Tokens)
	}
}

// RerunInstance executes one instance on m (typically with a fault armed
// by the caller) and returns the output text — the chosen option for
// multiple-choice suites, the decoded generation otherwise. Campaign
// trials store metrics rather than full outputs; reports re-run the
// interesting trials through this to show example outputs (Figures 7,
// 12, 15).
func RerunInstance(m *model.Model, suite *tasks.Suite, inst *tasks.Instance) string {
	ib := evalInstance(m, suite, inst, defaultGen(), DefaultChecker(suite), false, nil, nil, nil)
	if suite.Type == tasks.MultipleChoice {
		return suite.Vocab.DecodeAll(inst.Options[ib.Choice])
	}
	return ib.Text
}

// choiceBaseline is the outcome of a multiple-choice instance whose
// scoring chose option choice (gen.Choose).
func choiceBaseline(inst *tasks.Instance, choice int) InstanceBaseline {
	ok := choice == inst.Gold
	return InstanceBaseline{Choice: choice, AnswerOK: ok, Steps: scoreSteps(inst),
		Metrics: map[metrics.Kind]float64{metrics.KindAccuracy: b2f(ok)}}
}

// scoreSteps estimates decode steps for a multiple-choice instance: the
// prompt plus each option is processed once per option scoring.
func scoreSteps(inst *tasks.Instance) int {
	steps := 0
	for _, opt := range inst.Options {
		steps += len(inst.Prompt) + len(opt)
	}
	return steps
}

// scoreGenerative computes the suite's metrics for a candidate text.
func scoreGenerative(suite *tasks.Suite, text, reference string, answerOK bool) map[metrics.Kind]float64 {
	out := make(map[metrics.Kind]float64, len(suite.Metrics))
	for _, k := range suite.Metrics {
		if k == metrics.KindAccuracy {
			out[k] = b2f(answerOK)
			continue
		}
		out[k] = metrics.ByKind(k)(text, reference)
	}
	return out
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
