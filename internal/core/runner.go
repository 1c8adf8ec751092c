package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/abft"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/prng"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// Runner executes a Campaign with the full production runtime:
// cancellation via context, a typed live event stream, periodic
// checkpointing with bit-identical resume, and a telemetry registry.
//
//	r := core.NewRunner(c, core.WithCheckpoint("run.ckpt"))
//	for ev := range r.Stream(ctx) { ... }
//
// Resume soundness: trial t derives all of its randomness from Split(t)
// of the campaign seed and runs against the (deterministic) fault-free
// baseline, so a trial's outcome is a pure function of (campaign
// fingerprint, t). Skipping checkpointed indices and running the rest
// therefore yields a Result bit-identical to an uninterrupted run.
type Runner struct {
	c Campaign

	ckptPath  string
	ckptEvery int
	resume    *Checkpoint
	tel       *Telemetry

	only     []int
	baseline *Baseline

	traceEvery int
	traceSink  func(trace.Record) error

	spanObs func(index int, spans []trace.Span, busy time.Duration)
}

// RunnerOption configures a Runner.
type RunnerOption func(*Runner)

// WithCheckpoint makes the runner persist completed trials to path —
// every checkpoint interval, and finally when the campaign completes,
// errors, or is cancelled (the SIGINT path).
func WithCheckpoint(path string) RunnerOption {
	return func(r *Runner) { r.ckptPath = path }
}

// WithCheckpointEvery sets the number of completed trials between
// periodic checkpoint writes (default 64).
func WithCheckpointEvery(n int) RunnerOption {
	return func(r *Runner) { r.ckptEvery = n }
}

// WithResumeFrom seeds the runner with a previously saved checkpoint;
// its completed trial indices are skipped. The checkpoint fingerprint
// must match the campaign.
func WithResumeFrom(ck *Checkpoint) RunnerOption {
	return func(r *Runner) { r.resume = ck }
}

// WithTelemetry supplies an external telemetry registry so callers can
// snapshot it during or after the run.
func WithTelemetry(t *Telemetry) RunnerOption {
	return func(r *Runner) { r.tel = t }
}

// WithOnly restricts execution to the given trial indices — the
// lease-range mode the distributed fabric workers run in. Indices
// outside [0, Trials) are ignored; duplicates collapse. The Result is
// partial (only the selected trials are filled in), which is sound for
// consumers that merge TrialDone events by index: trial t's outcome is a
// pure function of (campaign fingerprint, t), so any partition of the
// index space unions to the bit-identical full Result.
func WithOnly(indices []int) RunnerOption {
	return func(r *Runner) {
		// make (not append) so an empty selection stays non-nil: it means
		// "run nothing", whereas nil means "run everything".
		r.only = make([]int, len(indices))
		copy(r.only, indices)
	}
}

// WithBaseline supplies a previously computed fault-free baseline,
// skipping the runner's own baseline evaluation. The baseline must come
// from an equivalent campaign on the same model value (in practice: a
// prior run's BaselineReady event — the fabric worker evaluates it once
// and reuses it across leases; a Result's scores-only copy has no prefix
// snapshots to fork trials from, and a generative transient-fault
// campaign, whose rows — greedy or beam — start from them, refuses it
// with ErrBaselineNoPrefix; multiple-choice rows start from empty states
// and need none). A baseline captured without activation capture
// silently disables propagation probes for traced trials; one without the
// depth planes or ledger a row's fork needs (gen.Record.Fork) — a
// transient campaign's planes start at each prompt's end — runs the row's
// every pass whole.
func WithBaseline(b *Baseline) RunnerOption {
	return func(r *Runner) { r.baseline = b }
}

// WithTrace enables propagation tracing: every n-th trial (n=1 traces
// all) runs with a probe that diffs its layer activations against the
// instance's clean baseline capture, and the resulting trace.Record is
// delivered to sink (may be nil — records still ride TrialDone events)
// from the collector goroutine, in completion order. A sink error stops
// the campaign.
//
// Tracing is observational: it never alters trial outcomes, and is
// deliberately excluded from the checkpoint fingerprint — a resumed
// campaign may change its tracing configuration freely. It is
// automatically disabled for multiple-choice suites and beam search,
// whose forked decode states have no per-position clean reference.
func WithTrace(n int, sink func(trace.Record) error) RunnerOption {
	return func(r *Runner) {
		r.traceEvery = n
		r.traceSink = sink
	}
}

// WithSpanObserver delivers every completed trial's phase timing spans
// (the same prefill/decode/abft/classify breakdown the telemetry
// histograms aggregate) plus its wall-clock busy time to fn, from the
// collector goroutine in completion order. Observational by
// construction: the observer sees copies of timing data after the trial
// outcome is already sealed, so it cannot perturb results — the fleet
// observability plane (internal/obs) uses it to export per-trial spans
// without touching the hot path.
func WithSpanObserver(fn func(index int, spans []trace.Span, busy time.Duration)) RunnerOption {
	return func(r *Runner) { r.spanObs = fn }
}

// NewRunner wraps a Campaign in the streaming runtime.
func NewRunner(c Campaign, opts ...RunnerOption) *Runner {
	r := &Runner{c: c}
	for _, opt := range opts {
		opt(r)
	}
	if r.tel == nil {
		r.tel = NewTelemetry()
	}
	if r.ckptEvery <= 0 {
		r.ckptEvery = 64
	}
	return r
}

// Telemetry returns the runner's metrics registry.
func (r *Runner) Telemetry() *Telemetry { return r.tel }

// Run executes the campaign to completion, blocking without an event
// stream. Cancelling ctx stops the pool within one trial per worker and
// returns ctx.Err(); with a checkpoint configured, a final checkpoint
// is written before returning.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	return r.run(ctx, nil)
}

// Stream starts the campaign and returns its event channel. The stream
// must be drained until close (the terminal CampaignDone event carries
// the Result or error); abandoning it mid-stream blocks the runner.
func (r *Runner) Stream(ctx context.Context) <-chan Event {
	events := make(chan Event, 128)
	go func() {
		defer close(events)
		res, err := r.run(ctx, func(ev Event) { events <- ev })
		events <- CampaignDone{Result: res, Err: err}
	}()
	return events
}

// Resume loads the checkpoint at path, verifies it against the
// campaign, and runs the remaining trials. The merged Result is
// bit-identical to an uninterrupted run. Subsequent checkpoints are
// written back to the same path unless WithCheckpoint chose another.
func (r *Runner) Resume(ctx context.Context, path string) (*Result, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	r.resume = ck
	if r.ckptPath == "" {
		r.ckptPath = path
	}
	return r.Run(ctx)
}

// trialResult carries one worker's completed trial (or failure) to the
// collector.
type trialResult struct {
	index  int
	worker int
	trial  Trial
	rec    *trace.Record
	spans  []trace.Span // phase timings, only filled when an observer is set
	busy   time.Duration
	err    error
}

// run is the campaign runtime shared by Run and Stream. emit may be
// nil (blocking mode).
func (r *Runner) run(ctx context.Context, emit func(Event)) (*Result, error) {
	if emit == nil {
		emit = func(Event) {}
	}
	c := r.c
	if err := c.validate(); err != nil {
		return nil, err
	}
	gs, check := c.effective()

	// One sampler serves every worker: it is immutable and reads only
	// layer shapes and the dtype, which a worker's clone shares. Building
	// it up front also surfaces a bad target filter before any work starts.
	sampler, err := faults.NewSampler(c.Model, c.Filter)
	if err != nil {
		return nil, err
	}
	if r.resume != nil {
		if err := r.resume.Matches(c); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Route the trials' ExtraHook installations through the telemetry
	// counter; the wrapper forwards values untouched, so mitigation
	// behavior (and golden equivalence) is unchanged. The baseline
	// runs under the campaign's own: its firings are no trial's.
	baseHook := c.ExtraHook
	if c.ExtraHook != nil {
		orig := c.ExtraHook
		tel := r.tel
		c.ExtraHook = func() model.Hook {
			h := orig()
			return func(ref model.LayerRef, step int, out []float32) {
				tel.hookFired()
				h(ref, step, out)
			}
		}
	}

	// Tracing eligibility: probes need a per-position clean reference, so
	// multiple-choice scoring (positions restart per option) and beam
	// search (forked decode states) run untraced.
	traceOn := r.traceEvery > 0 &&
		c.Suite.Type != tasks.MultipleChoice && gs.NumBeams <= 1

	// Clean-weight checksums are summed once, from the campaign's model:
	// nothing writes it, and faults are armed only on the workers' clones.
	var table *abft.Table
	if c.ABFT != nil {
		table = c.ABFT.Table(c.Model)
	}

	// Only a transient fault's generative rows start inside the baseline's
	// record: a memory fault's compute their prompts, on an empty state
	// without one, and multiple-choice trials start empty. A baseline
	// evaluated here has it; a given one may not.
	if r.baseline != nil && !c.noPrefixReuse && !c.Fault.IsMemory() && c.Suite.Type != tasks.MultipleChoice {
		for i := range r.baseline.Instances {
			if r.baseline.Instances[i].rec == nil {
				return nil, ErrBaselineNoPrefix
			}
		}
	}

	res := &Result{Campaign: c, Trials: make([]Trial, c.Trials)}
	completed := make([]bool, c.Trials)
	done := 0
	var restored []Trial
	if r.resume != nil {
		for i, t := range r.resume.Indices {
			if t < 0 || t >= c.Trials || completed[t] {
				continue
			}
			res.Trials[t] = r.resume.Trials[i]
			completed[t] = true
			done++
			restored = append(restored, r.resume.Trials[i])
		}
	}
	selected := func(int) bool { return true }
	if r.only != nil {
		sel := make([]bool, c.Trials)
		for _, t := range r.only {
			if t >= 0 && t < c.Trials {
				sel[t] = true
			}
		}
		selected = func(t int) bool { return sel[t] }
	}
	pending := make([]int, 0, c.Trials-done)
	for t := 0; t < c.Trials; t++ {
		if !completed[t] && selected(t) {
			pending = append(pending, t)
		}
	}
	// Trials run grouped by instance, in instance order: the baseline
	// publishes its instances in that order, so the pool starts on the
	// first instance's trials while the later ones are still evaluated.
	n := len(c.Suite.Instances)
	slices.SortStableFunc(pending, func(a, b int) int { return a%n - b%n })

	// Every campaign but the seed path rides the decode loop at the
	// configured width (serial decode is width 1); the seed path runs one
	// trial per worker.
	width := 1
	if !c.noPrefixReuse && c.BatchDecode > 1 {
		width = c.BatchDecode
	}
	var sh shape
	if len(pending) > 0 {
		sh = poolShape(len(pending), c.Workers, width, runtime.GOMAXPROCS(0))
	}
	lanes := sh.workers * sh.lanes
	r.tel.begin(c.Trials, lanes)
	// Fold checkpointed trials into the cumulative counters so tallies
	// and fired rates survive a resume; the throughput rate still counts
	// only this run's executed trials.
	r.tel.restore(restored)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The baseline is published to the pool instance by instance: insts[i]
	// once ready[i] is closed, the whole of it once baseDone is. A given
	// one is published whole up front. Otherwise it is evaluated on its
	// own goroutine, on c.Model, under the observers that record what the
	// trials read from it — on its own states, which no trial sees — and
	// stops after the instance in hand when runCtx ends, leaving baseline
	// nil.
	baseline := r.baseline
	insts := make([]*InstanceBaseline, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	baseDone := make(chan struct{})
	if baseline != nil {
		for i := range insts {
			insts[i] = &baseline.Instances[i]
			close(ready[i])
		}
		close(baseDone)
	} else {
		// Activations and depth planes are kept only from where a trial's
		// fault can reach (strikeFloor): below it, trials read the
		// baseline's KV rows and nothing else.
		var opts baselineOpts
		if c.depthEligible(gs) {
			opts.depthFrom = c.strikeFloor
		}
		if traceOn {
			opts.capMinPos = c.strikeFloor
		}
		if opts.depthFrom != nil && c.ABFT != nil && c.ABFT.AllLayers {
			opts.ledger, opts.tol = table, c.ABFT.Tol
		}
		if baseHook != nil {
			opts.hook = baseHook()
		}
		go func() {
			defer close(baseDone)
			opts.onInstance = func(i int, ib *InstanceBaseline) bool {
				insts[i] = ib
				close(ready[i])
				return runCtx.Err() == nil
			}
			baseline = evalBaseline(c.Model, c.Suite, gs, check, opts)
		}()
	}

	seedSrc := prng.New(c.Seed ^ 0xca3b417a)
	// The jobs channel is pre-filled and closed before workers start, so
	// a worker that stops early never strands a blocked producer.
	jobs := make(chan int, len(pending))
	for _, t := range pending {
		jobs <- t
	}
	close(jobs)

	results := make(chan trialResult, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Lanes share the parent's weights, which nothing writes: a
			// lane's clone carries only its own trials' observers and
			// thread budget, so per-lane memory is the KV cache.
			wm := c.Model.CloneShared()
			wm.SetThreads(sh.threads)
			env := &trialEnv{
				c: c, r: r, worker: lane, wm: wm,
				sampler: sampler, table: table, seedSrc: seedSrc,
				insts: insts, ready: ready, gs: gs, check: check, traceOn: traceOn,
			}
			if t, err := env.run(runCtx, jobs, results, sh.rows); err != nil {
				// First failure cancels the pool; the collector surfaces
				// it through the event stream immediately.
				results <- trialResult{index: t, worker: lane, err: err}
				cancel()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: the single writer of res.Trials, telemetry, events, and
	// checkpoints. BaselineReady is every stream's first event, so trial
	// events are held until the baseline is complete, and dropped if it
	// never is (a run cancelled before then: its checkpoint still holds
	// the trials).
	var firstErr error
	sinceCkpt := 0
	var held []Event
	baseWait := (<-chan struct{})(baseDone)
	out := func(ev Event) {
		switch {
		case baseWait != nil:
			held = append(held, ev)
		case baseline != nil:
			emit(ev)
		}
	}
	for recv := (<-chan trialResult)(results); recv != nil || baseWait != nil; {
		var tr trialResult
		select {
		case <-baseWait:
			baseWait = nil
			if baseline != nil {
				res.Baseline = baseline.Scores()
				emit(BaselineReady{Baseline: baseline})
				for _, ev := range held {
					emit(ev)
				}
			}
			held = nil
			continue
		case got, ok := <-recv:
			if !ok {
				recv = nil
				continue
			}
			tr = got
		}
		if tr.err != nil {
			if firstErr == nil {
				firstErr = tr.err
			}
			continue
		}
		res.Trials[tr.index] = tr.trial
		completed[tr.index] = true
		done++
		sinceCkpt++
		r.tel.record(tr.worker, tr.trial, tr.busy)
		if r.spanObs != nil {
			r.spanObs(tr.index, tr.spans, tr.busy)
		}
		if tr.rec != nil {
			r.tel.tracedTrial()
			if r.traceSink != nil {
				if err := r.traceSink(*tr.rec); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					cancel()
				}
			}
		}
		out(TrialDone{Index: tr.index, Worker: tr.worker, Trial: tr.trial, Trace: tr.rec})
		out(r.tel.progress(done, c.Trials))
		if r.ckptPath != "" && sinceCkpt >= r.ckptEvery {
			if err := r.checkpoint(res, completed); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				cancel()
			}
			sinceCkpt = 0
		}
	}
	if len(pending) == 0 {
		// A fully resumed campaign ran nothing: one progress snapshot.
		out(r.tel.progress(done, c.Trials))
	}

	// Final checkpoint: on completion, on error, and on cancellation
	// (the SIGINT path), so no completed work is ever lost.
	if r.ckptPath != "" {
		if err := r.checkpoint(res, completed); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// shape is the pool's: workers, each run as lanes goroutines of its own,
// every lane a decode loop of rows rows on a model clone of threads
// threads.
type shape struct{ workers, lanes, rows, threads int }

// poolShape sizes the worker pool from the actual in-flight shape. A
// worker carries up to width trials (one when the campaign does not ride
// the decode loop), so the pool is capped by ceil(pending/width) —
// spawning more would leave workers whose rows could never fill, each
// still claiming a core share. The machine is then divided among the
// workers that actually exist, and each worker spends its share T on
// lanes: L = min(T, width, pending) decode loops of ceil(width/L) rows,
// each its own goroutine at T/L threads. A lane never joins another per
// step (gen.Loop), so one width-16 worker on two cores decodes on both
// as two lanes of eight rows. A lane's threads go to its prefills, which
// run a prompt's positions in shards (forwardStack): a width-1 worker is
// one lane on the worker's whole share.
func poolShape(pending, requested, width, procs int) shape {
	workers := requested
	if workers <= 0 {
		workers = procs
	}
	if need := (pending + width - 1) / width; workers > need {
		workers = need
	}
	workers = max(workers, 1)
	threads := max(procs/workers, 1)
	lanes := max(min(threads, width, pending), 1)
	return shape{
		workers: workers,
		lanes:   lanes,
		rows:    (width + lanes - 1) / lanes,
		threads: max(threads/lanes, 1),
	}
}

// checkpoint persists the completed trials.
func (r *Runner) checkpoint(res *Result, completed []bool) error {
	ck := &Checkpoint{Fingerprint: r.c.Fingerprint()}
	for t, ok := range completed {
		if ok {
			ck.Indices = append(ck.Indices, t)
			ck.Trials = append(ck.Trials, res.Trials[t])
		}
	}
	return ck.Save(r.ckptPath)
}
