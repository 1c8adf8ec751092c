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

// trialEnv is one pool worker: its model clone and the campaign state
// every trial reads. A worker executes trials one of two ways, fixed per
// campaign by batchEligible:
//
//   - rows: each trial is a sequence on the worker's gen.Loop, forked
//     from the baseline's finished state at one of its resume points
//     (armed.resumeAt) with its fault, extra hook, probe and checker
//     scoped to its own batch row. Width max(1, BatchDecode); serial
//     decode is width 1.
//   - whole-model (runTrial): what a row cannot express — multiple-choice
//     scoring, memory faults, beam search, and the seed path
//     (noPrefixReuse) — arms the worker's model and runs one inference.
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
	base    *Baseline
	gs      gen.Settings
	check   AnswerChecker
	rows    bool
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
	// hooks and lc are the trial's observers in firing order — fault,
	// ExtraHook, probe — and its checker as the model sees it.
	hooks  []model.Hook
	lc     model.LinearChecker
	traced bool
	sp     spanTimes
	// busy is the trial's attributed wall time: arm, inference and seal,
	// with a row charged an equal share of every stacked step it rode in
	// so worker utilization stays comparable across widths.
	busy time.Duration
}

// arm is the trial preamble: sample trial t's site from Split(t), build
// its probe, its checker over the campaign's table and its fault, and
// line up the hooks. On the whole-model path the observers are installed
// on the worker's model; on the rows path they are returned for the
// trial's row.
func (e *trialEnv) arm(t int) (*armed, error) {
	c := e.c
	idx := t % len(c.Suite.Instances)
	a := &armed{
		t: t, idx: idx, inst: c.Suite.Instances[idx], base: &e.base.Instances[idx],
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
		a.lc = a.timed
		a.sp.abftOn = true
	}
	if a.inj, err = faults.New(e.wm, a.site, a.promptLen); err != nil {
		return fail(err)
	}
	if a.inj.Hook != nil {
		a.hooks = append(a.hooks, a.inj.Hook)
	}
	if c.ExtraHook != nil {
		// Mitigations observe values after the fault hook mutated them.
		a.hooks = append(a.hooks, c.ExtraHook())
	}
	if a.probe != nil {
		// The probe observes last — after the fault and any mitigation
		// hook have mutated the row — and never modifies it.
		a.hooks = append(a.hooks, a.probe.Hook())
	}
	if !e.rows {
		for _, h := range a.hooks {
			e.wm.AddHook(h)
		}
		e.wm.SetChecker(a.lc)
	}
	return a, nil
}

// resumeAt picks the baseline resume point the trial's row starts from.
// Every step before the strike recomputes, bit for bit, a row the
// baseline's state already holds (decoding is greedy and a fault only
// propagates forward), so a row nothing but the fault hook observes
// starts at the strike step itself, resume point GenIter. A checker, an
// ExtraHook or a probe counts clean positions too — Detection.Checks,
// mitigation counters, Record.Compared, the margin trajectory — so a row
// one of them rides starts at point 0, the post-prompt fork.
func (a *armed) resumeAt(c *Campaign) gen.Resume {
	g := 0
	if c.ABFT == nil && c.ExtraHook == nil && a.probe == nil {
		g = a.site.GenIter
	}
	return a.base.resume[g]
}

// seal is the trial postamble: disarm, then assemble the Trial, its
// Detection, the outcome class and (for a traced trial) the propagation
// Record from the finished inference ib.
func (e *trialEnv) seal(a *armed, ib InstanceBaseline) trialResult {
	c := e.c
	start := now()
	sp := &a.sp
	fired := a.inj.Fired
	a.inj.Disarm()
	if !e.rows {
		e.wm.ClearHooks()
		e.wm.SetChecker(nil)
	}

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
		sp.abft = a.timed.total - sp.mitigate
		trial.Detection = summarizeDetection(a.checker, a.site, a.promptLen, fired)
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

// run drains the jobs channel. A trial that cannot be armed stops the
// worker and is returned with its index; on context cancellation the
// in-flight trials are abandoned (never reported as completed, so
// checkpoint resume re-executes them).
func (e *trialEnv) run(ctx context.Context, jobs <-chan int, results chan<- trialResult, width int) (int, error) {
	if !e.rows {
		for t := range jobs {
			if ctx.Err() != nil {
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
	retire := func(s *gen.Seq[*armed]) {
		a := s.Owner
		start := now()
		ib := e.scoreResumed(a, s.State(), s.Result())
		loop.Release(s)
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
			start := now()
			a, err := e.arm(t)
			if err != nil {
				return t, err
			}
			forkStart := now()
			s := loop.AdmitFork(a.base.state, a.resumeAt(&e.c), gen.Arm{Hooks: a.hooks, Checker: a.lc}, a)
			// The fork stands in for prefill on this path.
			a.sp.prefill += since(forkStart)
			a.busy += since(start)
			if s.Done() {
				retire(s)
			}
		}
		n := loop.Len()
		if n == 0 {
			break
		}
		// A row is charged step wall / n however many threads the step
		// sharded over: phase time is the worker's wall clock, not CPU.
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

// runTrial executes trial t on the worker's model itself.
func (e *trialEnv) runTrial(t int) (trialResult, error) {
	start := now()
	a, err := e.arm(t)
	if err != nil {
		return trialResult{}, err
	}
	var ib InstanceBaseline
	if e.c.reusePrefix(a.base) {
		ib = e.resumeBeam(a)
	} else {
		ib = evalInstance(e.wm, e.c.Suite, &a.inst, e.gs, e.check, false, false, &a.sp)
	}
	a.busy = since(start)
	return e.seal(a, ib), nil
}

// resumeBeam runs a beam-search trial from the baseline's shared prefix
// (greedy prefix reuse is a decode-loop row, never this): the snapshot is
// forked by reference onto the worker's clone, so the worker's fault and
// mitigation hooks fire from the first generated token.
func (e *trialEnv) resumeBeam(a *armed) InstanceBaseline {
	gs := e.gs
	gs.MaxNewTokens = a.inst.MaxNew
	gs.MinNewTokens = a.inst.MinNew
	prefillStart := now()
	st := a.base.state.ForkInto(e.wm, nil, a.base.state.Pos())
	// The fork stands in for prefill on this path.
	a.sp.prefill += since(prefillStart)
	decodeStart := now()
	res := gen.ContinueBeam(e.wm, st, a.base.prefixLogits, gs)
	a.sp.decode += since(decodeStart)
	a.sp.steps = res.Steps
	return e.scoreResumed(a, st, res)
}

// scoreResumed scores a generation that continued from the baseline's
// prefix snapshot on st.
func (e *trialEnv) scoreResumed(a *armed, st *model.State, res gen.Result) InstanceBaseline {
	var ib InstanceBaseline
	// Steps is the runtime proxy for the modeled inference, which still
	// includes the prompt the snapshot stands in for.
	res.Steps += len(a.inst.Prompt)
	if e.wm.Cfg.IsMoE() && e.gs.NumBeams <= 1 {
		ib.ExpertTrace = st.ExpertTrace
	}
	classifyStart := now()
	finishGenerative(&ib, e.c.Suite, &a.inst, res, e.check, false)
	a.sp.classify += since(classifyStart)
	return ib
}
