package core

import (
	"context"
	"maps"
	"time"

	"repro/internal/abft"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/outcome"
	"repro/internal/prng"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// trialEnv is one lane of a pool worker (poolShape): its model clone and
// the campaign state every trial reads. A lane executes trials one of two
// ways, fixed per campaign:
//
//   - rows: each trial rides the lane's gen.Loop, its Observers — fault,
//     extra hook, probe, checker — scoped to its own batch row; how it
//     enters the loop is admit's. A beam search's hypotheses take turns
//     on the trial's row. The worker's width max(1, BatchDecode) is split
//     over its lanes; serial decode is width 1, one lane.
//   - one at a time (runTrial): the seed path (noPrefixReuse), with the
//     trial's Observers installed on the worker's model.
//
// Both go through the same arm and seal, so the trial contract — what is
// sampled from Split(t), what observes the inference and in which order,
// how the outcome is assembled — is written once; that a row's inference
// equals the whole-model one is gen.Loop's argument.
type trialEnv struct {
	c       Campaign
	r       *Runner
	worker  int
	wm      *model.Model
	sampler *faults.Sampler
	// table holds the clean-weight checksums of Campaign.Model (nil
	// without Campaign.ABFT), read by every worker's per-trial checkers.
	table   *abft.Table
	seedSrc *prng.Source
	// insts[i] is instance i's baseline, readable once ready[i] is closed
	// (baseFor): the runner evaluates them one after another while the
	// pool runs the trials of those already published.
	insts   []*InstanceBaseline
	ready   []chan struct{}
	gs      gen.Settings
	check   AnswerChecker
	traceOn bool
}

// armed is one trial between arm and seal.
type armed struct {
	t, idx    int
	inst      tasks.Instance
	base      *InstanceBaseline
	site      faults.Site
	promptLen int
	// strikePos is the absolute token position a transient fault fires
	// at; resident (memory) faults are live everywhere (-1).
	strikePos int
	inj       *faults.Injection
	probe     *trace.Probe
	checker   *abft.Checker
	timed     *timedChecker
	// obs are what observe the trial's inference: its hooks in firing
	// order — fault, ExtraHook, probe — its checker as the model sees it,
	// and its fault's strike.
	obs    model.Observers
	traced bool
	// fork is where the trial's row enters its baseline's record, and
	// matched the positions it read from the record's depth planes.
	fork    gen.Fork
	matched int
	scores  []float64 // a multiple-choice trial's option scores so far
	sp      spanTimes
	// busy is the trial's attributed wall time: arm, inference and seal,
	// with a row charged an equal share of every stacked step it rode in
	// so worker utilization stays comparable across widths.
	busy time.Duration
}

// arm is the trial preamble: sample trial t's site from Split(t), build
// its probe, its checker over the campaign's table and its fault, and
// line up its Observers.
func (e *trialEnv) arm(t int) (*armed, error) {
	c := e.c
	idx := t % len(c.Suite.Instances)
	a := &armed{
		t: t, idx: idx, inst: c.Suite.Instances[idx], base: e.insts[idx],
		traced: e.traceOn && t%e.r.traceEvery == 0,
	}
	// Effective reference: gold, or the fault-free output (self-relative).
	if a.inst.Reference == "" {
		a.inst.Reference = a.base.Reference
	}

	var maxIters int
	maxIters, a.promptLen = c.faultWindow(&a.inst, a.base)
	a.site = e.sampler.Sample(e.seedSrc.Split(uint64(t)), c.Fault, maxIters)
	fail := func(err error) (*armed, error) {
		return nil, &TrialError{Index: t, Site: a.site, Err: err}
	}

	a.strikePos = -1
	if !c.Fault.IsMemory() && c.Suite.Type != tasks.MultipleChoice {
		a.strikePos = a.promptLen + a.site.GenIter
	}
	if a.traced && a.base.capture != nil {
		a.probe = trace.NewProbe(a.base.capture, trace.ProbeConfig{
			Tol: trace.DefaultTol, StrikePos: a.strikePos, Site: a.site.Layer,
		})
	}

	var err error
	if c.ABFT != nil {
		if a.checker, err = c.ABFT.Checker(e.table, a.site.Layer); err != nil {
			return fail(err)
		}
		a.timed = &timedChecker{inner: a.checker}
		a.obs.Checker = a.timed
		a.sp.abftOn = true
	}
	if a.inj, err = faults.New(e.wm, a.site, a.promptLen); err != nil {
		return fail(err)
	}
	a.obs.Strike = a.inj.Strike
	if a.inj.Hook != nil {
		a.obs.Hooks = append(a.obs.Hooks, a.inj.Hook)
	}
	if c.ExtraHook != nil {
		// Mitigations observe values after the fault hook mutated them.
		a.obs.Hooks = append(a.obs.Hooks, c.ExtraHook())
	}
	if a.probe != nil {
		// The probe observes last — after the fault and any mitigation
		// hook have mutated the row — and never modifies it.
		a.obs.Hooks = append(a.obs.Hooks, a.probe.Hook())
	}
	// A memory fault's strike is armed before its row computes its prompt;
	// a row with no record to enter (multiple choice, or a memory fault on
	// a scores-only baseline) computes its prompt whole.
	a.fork = gen.Fork{Prompt: true, Depth: -1}
	if a.base.rec != nil {
		w := gen.Watch{
			MaxNew:     a.inst.MaxNew,
			PromptLive: c.Fault.IsMemory(),
			Counted:    c.ABFT != nil || c.ExtraHook != nil || a.probe != nil,
			Whole:      a.traced || !c.depthEligible(e.gs),
		}
		if c.ABFT != nil {
			w.Checker, w.AllLayers, w.Tol = true, c.ABFT.AllLayers, c.ABFT.Tol
		}
		a.fork = a.base.rec.Fork(a.site, w)
	}
	return a, nil
}

// seal is the trial postamble: assemble the Trial, its Detection, the
// outcome class and (for a traced trial) the propagation Record from the
// finished inference ib.
func (e *trialEnv) seal(a *armed, ib InstanceBaseline) trialResult {
	c := e.c
	start := now()
	sp := &a.sp
	fired := a.inj.Fired

	trial := Trial{
		Site:     a.site,
		Instance: a.idx,
		Fired:    fired,
		AnswerOK: ib.AnswerOK,
		Choice:   ib.Choice,
		Metrics:  ib.Metrics,
		Steps:    ib.Steps,
	}
	if a.checker != nil {
		sp.mitigate = a.checker.MitigationTime()
		sp.abft = time.Duration(a.timed.total.Load()) - sp.mitigate
		skipped := 0
		if c.ABFT.AllLayers && a.fork.Depth > 0 {
			skipped = a.base.rec.Ledger.Skipped(a.fork.Depth, a.fork.Pos, a.matched)
		}
		trial.Detection = summarizeDetection(a.checker, a.site, a.promptLen, fired, skipped)
	}
	if a.fork.Depth > 0 {
		e.r.tel.depthSkipped(a.fork.Depth * a.matched)
	}
	if c.Suite.Type == tasks.MultipleChoice {
		masked := ib.Choice == a.base.Choice
		trial.Outcome = outcome.Analysis{Changed: !masked}
		if !masked {
			trial.Outcome.Class = outcome.SDCSubtle
		}
	} else {
		trial.Outcome = outcome.Classify(ib.Tokens, a.base.Tokens, ib.AnswerOK, c.Thresholds)
		if e.wm.Cfg.IsMoE() && e.gs.NumBeams <= 1 {
			trial.ExpertChanged = !expertTraceEqual(ib.ExpertTrace, a.base.ExpertTrace)
		}
	}
	if maps.Equal(trial.Metrics, a.base.Metrics) {
		// Most trials score exactly their instance's baseline, and a
		// Result retains every trial: those share the baseline's map.
		trial.Metrics = a.base.Metrics
	}
	sp.classify += since(start)

	var rec *trace.Record
	if a.traced {
		rec = &trace.Record{
			Schema:     trace.SchemaVersion,
			Trial:      a.t,
			Instance:   a.idx,
			Fault:      a.site.Fault.String(),
			Site:       a.site.String(),
			Layer:      a.site.Layer.String(),
			Block:      a.site.Layer.Block,
			Bits:       a.site.Bits,
			HighestBit: a.site.HighestBit(),
			GenIter:    a.site.GenIter,
			StrikePos:  a.strikePos,
			Fired:      fired,
			Outcome:    trial.Outcome.Class.String(),
			AnswerOK:   trial.AnswerOK,
			Steps:      trial.Steps,
		}
		if a.probe != nil {
			a.probe.Fill(rec)
		}
		rec.Spans = sp.spans()
	}
	e.r.tel.observeSpans(sp)
	a.busy += since(start)
	tr := trialResult{index: a.t, worker: e.worker, trial: trial, rec: rec, busy: a.busy}
	if e.r.spanObs != nil {
		tr.spans = sp.spans()
	}
	return tr
}

// baseFor waits until trial t's instance baseline is published, and
// reports false instead if ctx ends first. The wait is no trial's busy
// time.
func (e *trialEnv) baseFor(ctx context.Context, t int) bool {
	select {
	case <-e.ready[t%len(e.ready)]:
		return ctx.Err() == nil
	case <-ctx.Done():
		return false
	}
}

// run drains the jobs channel, which every lane of the pool shares. A
// trial that cannot be armed stops the lane and is returned with its index; on context cancellation the
// in-flight trials are abandoned (never reported as completed, so
// checkpoint resume re-executes them).
func (e *trialEnv) run(ctx context.Context, jobs <-chan int, results chan<- trialResult, width int) (int, error) {
	if e.c.noPrefixReuse {
		for t := range jobs {
			if !e.baseFor(ctx, t) {
				break
			}
			tr, err := e.runTrial(t)
			if err != nil {
				return t, err
			}
			results <- tr
		}
		return 0, nil
	}

	loop := gen.NewLoop[*armed](e.wm, width)
	// retire takes a finished sequence off the loop and seals its trial. A
	// multiple-choice trial admits its next option on the row just freed
	// until the last is scored: its options never share a step, and a
	// one-shot fault strikes the option ChooseOption's serial order would.
	var retire func(s *gen.Seq[*armed])
	retire = func(s *gen.Seq[*armed]) {
		a := s.Owner
		start := now()
		var ib InstanceBaseline
		if e.c.Suite.Type == tasks.MultipleChoice {
			a.scores = append(a.scores, s.Result().LogProb)
			loop.Release(s)
			if len(a.scores) < len(a.inst.Options) {
				next := e.admit(loop, a)
				a.busy += since(start)
				if next.Done() {
					retire(next)
				}
				return
			}
			ib = choiceBaseline(&a.inst, gen.Choose(a.scores))
		} else {
			a.matched = s.State().DepthMatched()
			ib = e.score(a, s.State(), s.Result())
			loop.Release(s)
		}
		a.busy += since(start)
		results <- e.seal(a, ib)
	}
	for ctx.Err() == nil {
		// Refill every free row, each freed one immediately.
		for loop.Free() > 0 {
			t, ok := <-jobs
			if !ok {
				break
			}
			if !e.baseFor(ctx, t) {
				return 0, nil
			}
			start := now()
			a, err := e.arm(t)
			if err != nil {
				return t, err
			}
			s := e.admit(loop, a)
			a.busy += since(start)
			if s.Done() {
				retire(s)
			}
		}
		n := loop.Len()
		if n == 0 {
			break
		}
		// A row is charged step wall / n: phase time is the lane's wall
		// clock, not CPU.
		stepStart := now()
		finished := loop.Step()
		share := since(stepStart) / time.Duration(n)
		e.r.tel.observeBatch(n)
		charge := func(a *armed) {
			a.sp.decode += share
			a.sp.steps++
			a.busy += share
		}
		for _, s := range loop.Live() {
			charge(s.Owner)
		}
		for _, s := range finished {
			charge(s.Owner)
			retire(s)
		}
	}
	return 0, nil
}

// admit seats trial a's next inference on loop, the one place a trial
// enters it: a multiple-choice trial's next option as a Scorer over the
// prompt, prefilled on an empty state; any other where its fork enters the
// baseline's record — computing its prompt under its strike, on a beam
// search's post-prompt snapshot fed its logits, or at a resume point.
// Admission is the prefill span on this path.
func (e *trialEnv) admit(loop *gen.Loop[*armed], a *armed) *gen.Seq[*armed] {
	start := now()
	arm := gen.Arm{Observers: a.obs}
	var s *gen.Seq[*armed]
	switch rec := a.base.rec; {
	case e.c.Suite.Type == tasks.MultipleChoice:
		s = loop.AdmitPrompt(nil, -1, a.inst.Prompt, gen.Scorer(a.inst.Options[len(a.scores)]), arm, a)
	case a.fork.Prompt:
		s = loop.AdmitPrompt(a.fork.From, a.fork.Depth, a.inst.Prompt, gen.NewStepper(e.settings(&a.inst)), arm, a)
	case e.gs.NumBeams > 1:
		s = loop.Admit(rec.Prefix.ForkInto(e.wm, nil, rec.Prefix.Pos()), rec.Logits, e.settings(&a.inst), arm, a)
	default:
		s = loop.AdmitFork(a.fork.From, a.fork.At, a.fork.Depth, arm, a)
	}
	a.sp.prefill += since(start)
	return s
}

// runTrial executes trial t as one whole inference on the worker's model,
// under the trial's Observers installed there for its duration: the seed
// path.
func (e *trialEnv) runTrial(t int) (trialResult, error) {
	start := now()
	a, err := e.arm(t)
	if err != nil {
		return trialResult{}, err
	}
	e.wm.SetObservers(a.obs)
	ib := evalInstance(e.wm, e.c.Suite, &a.inst, e.gs, e.check, false, nil, nil, &a.sp)
	e.wm.SetObservers(model.Observers{})
	a.busy = since(start)
	return e.seal(a, ib), nil
}

// settings are the campaign's decoding settings with inst's token budget.
func (e *trialEnv) settings(inst *tasks.Instance) gen.Settings {
	gs := e.gs
	gs.MaxNewTokens, gs.MinNewTokens = inst.MaxNew, inst.MinNew
	return gs
}

// score scores the generation a decode-loop row ran on st.
func (e *trialEnv) score(a *armed, st *model.State, res gen.Result) InstanceBaseline {
	var ib InstanceBaseline
	// Steps is the runtime proxy for the modeled inference, which includes
	// the prompt, forked or prefilled.
	res.Steps += len(a.inst.Prompt)
	if e.wm.Cfg.IsMoE() && e.gs.NumBeams <= 1 {
		ib.ExpertTrace = st.ExpertTrace
	}
	classifyStart := now()
	finishGenerative(&ib, e.c.Suite, &a.inst, res, e.check, false, a.base)
	a.sp.classify += since(classifyStart)
	return ib
}
