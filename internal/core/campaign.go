package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/abft"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/outcome"
	"repro/internal/tasks"
	"repro/internal/token"
	"repro/internal/trace"
)

// Campaign describes one statistical fault-injection configuration: a
// model, a task suite, a fault model, and how many uniformly-sampled
// injection trials to run.
type Campaign struct {
	Model  *model.Model
	Suite  *tasks.Suite
	Fault  faults.Model
	Trials int
	Seed   uint64
	// Filter restricts the injectable layers (nil = all block linears;
	// faults.GateOnly reproduces the Figure 15 gate-layer campaign).
	Filter faults.TargetFilter
	// Gen carries decoding settings (NumBeams; MaxNewTokens comes from
	// each instance). Zero value = greedy with EOS stop.
	Gen gen.Settings
	// Check overrides the answer criterion (nil = DefaultChecker).
	Check AnswerChecker
	// ReasoningOnly restricts computational-fault iterations to the
	// reasoning segment of the baseline output (the CoT study, §4.3.2).
	ReasoningOnly bool
	// Workers bounds the worker pool (0 = GOMAXPROCS). Each worker owns
	// a model clone, so memory-fault flips never leak across trials.
	Workers int
	// Thresholds tunes the distortion classifier.
	Thresholds outcome.Thresholds
	// ExtraHook, when non-nil, supplies an additional forward hook
	// installed for the baseline and for every trial AFTER the fault
	// hook — the slot where deployed mitigations (e.g. range
	// restriction, internal/mitigate) run, seeing the corrupted values
	// exactly as real protection software would. The factory is invoked
	// once per installation; share state through the closure if the
	// mitigation needs campaign-wide counters — synchronised, since
	// trials run concurrently, across workers and across the rows of one
	// worker's decode step.
	ExtraHook func() model.Hook
	// ABFT, when non-nil, arms the online checksum detector
	// (internal/abft) for every trial: each worker owns a Checker whose
	// clean-weight checksums are computed before the trial's fault is
	// armed, and each trial's verdicts land in Trial.Detection. The
	// baseline runs unchecked — it is the fault-free reference.
	ABFT *ABFTConfig
	// BatchDecode is the decode-loop width: each worker keeps up to
	// BatchDecode trials in flight on one gen.Loop, running one stacked
	// forward pass per token across all of them and admitting the next
	// trial as soon as one retires (≤1 = width 1, serial decode — the
	// same loop, not a second path). Observationally inert — every
	// trial's computation, hooks, checker verdicts, and sampled randomness
	// are identical at every width — so it is deliberately excluded from
	// the checkpoint Fingerprint (like tracing, a resumed campaign may
	// change it freely). Campaigns a batch row cannot express
	// (multiple-choice scoring, memory faults, beam search) run one trial
	// at a time on the worker's model whatever the width; see
	// batchEligible.
	BatchDecode int

	// noPrefixReuse forces every trial through full prefill and
	// deepClones gives every worker a deep model copy — together they
	// recover the seed execution path exactly. Test knobs for the golden
	// equivalence tests; production campaigns leave them false.
	noPrefixReuse bool
	deepClones    bool
}

// ABFTConfig configures the campaign's online detection layer.
type ABFTConfig = abft.Protection

// Detection summarizes one trial's ABFT verdicts.
type Detection struct {
	// Checks counts checksum evaluations; Flagged the violations.
	Checks, Flagged int
	// AtSite reports a violation attributable to the injected fault: at
	// the site layer — for computational faults at the struck position,
	// for memory faults at any position (the resident corruption is live
	// for the whole trial).
	AtSite bool
	// Cascaded counts violations at other layers/positions while the
	// fault was live — downstream saturation of a genuine corruption, not
	// noise.
	Cascaded int
	// FalsePositives counts violations with no fault active: pure
	// accumulation noise crossing the tolerance.
	FalsePositives int
	// Corrected and Skipped count recompute-repaired and zeroed outputs.
	Corrected, Skipped int
}

// Trial is the outcome of one injection.
type Trial struct {
	Site     faults.Site
	Instance int
	// Fired reports whether the fault actually struck (a computational
	// fault targeting an iteration past the end of generation does not).
	Fired bool
	// Outcome classifies the trial against the fault-free baseline.
	Outcome outcome.Analysis
	// AnswerOK is correctness against the gold reference.
	AnswerOK bool
	// Choice is the selected option (multiple-choice suites).
	Choice int
	// Metrics are the trial's quality scores. Read-only: a trial that
	// scored exactly its instance's baseline shares the baseline's map
	// (nothing writes a Trial's Metrics after construction).
	Metrics map[metrics.Kind]float64
	// ExpertChanged reports a different MoE expert-selection trace than
	// the baseline (MoE greedy campaigns only).
	ExpertChanged bool
	// Steps is the decode-step count of the trial.
	Steps int
	// Detection is the trial's ABFT record (nil without Campaign.ABFT).
	Detection *Detection
}

// Result is a completed campaign.
type Result struct {
	Campaign Campaign
	// Baseline is the scores-only copy of the fault-free baseline
	// (Baseline.Scores): outputs and metrics, not the KV snapshots trials
	// forked from. Reuse across runs takes the BaselineReady one.
	Baseline *Baseline
	Trials   []Trial
}

// defaultGen returns the paper's default generation settings: greedy
// decoding, EOS stop, specials banned.
func defaultGen() gen.Settings {
	return gen.Settings{NumBeams: 1, StopToken: token.EOS, BanSpecials: true}
}

// validate checks the campaign configuration, wrapping the typed
// sentinel errors with detail so callers can test with errors.Is.
func (c Campaign) validate() error {
	if c.Trials <= 0 {
		return ErrNoTrials
	}
	if len(c.Suite.Instances) == 0 {
		return fmt.Errorf("%w: suite %s", ErrEmptySuite, c.Suite.Name)
	}
	if c.Model.Cfg.MaxSeq < c.Suite.MaxSeqNeeded() {
		return fmt.Errorf("%w: model %s context %d < suite %s need %d",
			ErrContextTooSmall,
			c.Model.Cfg.Name, c.Model.Cfg.MaxSeq, c.Suite.Name, c.Suite.MaxSeqNeeded())
	}
	return nil
}

// effective resolves the zero-value decoding settings and answer
// checker to the paper defaults.
func (c Campaign) effective() (gen.Settings, AnswerChecker) {
	check := c.Check
	if check == nil {
		check = DefaultChecker(c.Suite)
	}
	gs := c.Gen
	if gs.NumBeams == 0 {
		gs.NumBeams = 1
	}
	if gs.StopToken == 0 {
		gs.StopToken = token.EOS
		gs.BanSpecials = true
	}
	return gs, check
}

// Run executes the campaign to completion, honoring ctx cancellation.
// Trials are distributed over a worker pool; trial t derives its
// randomness from Split(t) of the campaign seed, so results are
// bit-identical for any worker count. For the event stream, checkpoint
// persistence, and telemetry, use NewRunner directly.
func (c Campaign) Run(ctx context.Context) (*Result, error) {
	return NewRunner(c).Run(ctx)
}

// spanTimes accumulates one trial's phase timings. The worker observes
// them into the telemetry histograms after the trial completes, and a
// traced trial additionally exports them as Record.Spans.
type spanTimes struct {
	prefill  time.Duration
	decode   time.Duration
	classify time.Duration
	abft     time.Duration
	mitigate time.Duration
	// steps is the number of decode steps the trial executed behind the
	// decode span — on a decode-loop row, the stacked steps it rode in,
	// not the clean ones its resume point skipped; Trial.Steps stays the
	// modelled inference (0 for multiple-choice scoring, where per-token
	// timing is undefined).
	steps int
	// abftOn marks that a checker ran, so zero-duration check spans are
	// still meaningful observations.
	abftOn bool
}

// spans renders the accumulated timings as trace spans.
func (sp *spanTimes) spans() []trace.Span {
	s := []trace.Span{
		{Phase: trace.PhasePrefill, Seconds: sp.prefill.Seconds()},
		{Phase: trace.PhaseDecode, Seconds: sp.decode.Seconds(), Count: sp.steps},
	}
	if sp.steps > 0 {
		s = append(s, trace.Span{
			Phase:   trace.PhaseDecodeToken,
			Seconds: sp.decode.Seconds() / float64(sp.steps),
			Count:   sp.steps,
		})
	}
	if sp.abftOn {
		s = append(s,
			trace.Span{Phase: trace.PhaseABFTCheck, Seconds: sp.abft.Seconds()},
			trace.Span{Phase: trace.PhaseMitigate, Seconds: sp.mitigate.Seconds()})
	}
	return append(s, trace.Span{Phase: trace.PhaseClassify, Seconds: sp.classify.Seconds()})
}

// timedChecker wraps the worker's LinearChecker to measure total time
// inside checks; the mitigation share is recovered from the inner
// checker's own clock so detection and repair report as separate phases.
type timedChecker struct {
	inner model.LinearChecker
	total time.Duration
}

func (tc *timedChecker) CheckLinear(ref model.LayerRef, pos int, w model.Weight, in, out []float32) {
	start := now()
	tc.inner.CheckLinear(ref, pos, w, in, out)
	tc.total += since(start)
}

// batchEligible reports whether the campaign's trials run as rows of
// the decode loop. A row decodes from a fork of the baseline's state
// with row-scoped fault hooks, so it requires everything prefix reuse
// requires — and additionally a single greedy decode stream per
// trial: multiple-choice scoring has no decode loop, memory faults
// mutate the weights every in-flight sibling shares, and beam search
// forks states mid-decode.
func (c Campaign) batchEligible(gs gen.Settings) bool {
	return c.Suite.Type != tasks.MultipleChoice &&
		!c.Fault.IsMemory() &&
		gs.NumBeams <= 1 &&
		!c.noPrefixReuse
}

// reusePrefix reports whether a whole-model trial may resume from the
// baseline's post-prompt snapshot instead of re-running prefill — beam
// search, that is: a greedy trial that can reuse anything is a decode-loop
// row (batchEligible). Sound only when the faulted computation is
// bit-identical to the fault-free one over the whole prompt: generative
// computational faults target absolute position promptLen + GenIter,
// which never lands inside the prompt. Memory faults corrupt the weights
// prefill itself reads, and multiple-choice scoring (promptLen 0) can be
// struck at any prompt position, so both keep the full path.
func (c Campaign) reusePrefix(base *InstanceBaseline) bool {
	return !c.noPrefixReuse &&
		c.Suite.Type != tasks.MultipleChoice &&
		!c.Fault.IsMemory() &&
		base.prefixLogits != nil
}

// faultWindow returns the iteration window and the Arm promptLen for an
// instance: computational faults on generative tasks strike a uniformly
// random generation iteration within the baseline's actual output length
// (§3.2 "randomly choose a single token generation iteration");
// multiple-choice scoring has no generation, so the transient may strike
// during any token of the scoring passes.
func (c Campaign) faultWindow(inst *tasks.Instance, base *InstanceBaseline) (maxIters, promptLen int) {
	if c.Suite.Type == tasks.MultipleChoice {
		longest := 0
		for _, o := range inst.Options {
			if len(o) > longest {
				longest = len(o)
			}
		}
		return len(inst.Prompt) + longest, 0
	}
	n := len(base.Tokens)
	if c.ReasoningOnly && base.ReasoningLen > 0 {
		n = base.ReasoningLen
	}
	if n < 1 {
		n = 1
	}
	return n, len(inst.Prompt)
}

// summarizeDetection folds the checker's per-trial event log into the
// Trial.Detection record, attributing each violation to the injected
// fault, to its downstream cascade, or to noise.
func summarizeDetection(checker *abft.Checker, site faults.Site, promptLen int, fired bool) *Detection {
	st := checker.Stats()
	d := &Detection{
		Checks:    st.Checks,
		Flagged:   st.Flagged,
		Corrected: st.Corrected,
		Skipped:   st.Skipped,
	}
	target := promptLen + site.GenIter
	for _, ev := range checker.Events() {
		switch {
		case ev.Ref == site.Layer && (site.Fault.IsMemory() || ev.Pos == target):
			d.AtSite = true
		case site.Fault.IsMemory() || (fired && ev.Pos >= target):
			// The fault was live when this check ran: a flag elsewhere is
			// the corruption propagating (e.g. float32 saturation of a
			// downstream GEMM), not detector noise.
			d.Cascaded++
		default:
			d.FalsePositives++
		}
	}
	return d
}

// expertTraceEqual compares two per-block expert selection traces.
func expertTraceEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
