// Package serve is the live inference service: an engine that admits
// concurrent generate requests onto the continuous-batching decode core
// (model.Batch), with per-request deadlines and cancellation, graceful
// drain, per-request serving metrics, and an optional fault-campaign
// mode that injects into live traffic.
//
// The serving path preserves the offline trial contract. Every number a
// request's decode produces is bit-identical to the same request running
// alone through the serial generator: the batched GEMMs keep per-row
// accumulation order, injection hooks and ABFT checkers are row-scoped,
// and fault sites are a pure function of the request's seed — never of
// admission order or batch composition. Weight-resident faults (norm,
// embedding, linear memory) cannot be row-scoped, so those requests
// decode alone — the same loop at width 1 — on a private copy-on-write
// clone, exactly as offline campaigns serialize memory-fault trials per
// model instance.
//
// Every request's prompt is prefilled clean — its fault and checker are
// armed at admission, after it — so the post-prompt KV rows are a pure
// function of the prompt's tokens: a prompt the engine keeps seeing is
// prefilled once, and later requests fork its rows by reference
// (prefixCache, Engine.prefill).
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/abft"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/prng"
	"repro/internal/token"
)

// ErrDraining rejects a request that arrived after shutdown began.
var ErrDraining = errors.New("serve: engine draining")

// ErrInvalid wraps request-validation failures (the HTTP layer maps it
// to a 400 envelope).
var ErrInvalid = errors.New("serve: invalid request")

// ABFTConfig arms checksum detection on served requests. Without
// AllLayers only the request's own injection site is protected, and only
// when that site is a linear layer — the non-linear surfaces have no
// checksum to violate, which is exactly the coverage boundary
// fig_serving measures.
type ABFTConfig = abft.Protection

// InjectConfig turns the engine into a live fault campaign: each
// admitted request receives one fault whose site is a pure function of
// (Seed, request seed), sampled uniformly over the configured surfaces.
type InjectConfig struct {
	// Fault is the fault model (bit multiplicity / residence).
	Fault faults.Model
	// Surfaces to sample uniformly; empty defaults to SurfaceLinear.
	Surfaces []faults.Surface
	// Seed is the campaign-level base seed.
	Seed uint64
	// ABFT, when non-nil, arms a checker per request.
	ABFT *ABFTConfig
}

// Config parameterizes an Engine.
type Config struct {
	// Model serves all requests; its weights are treated as read-only
	// (weight-resident faults clone copy-on-write before flipping).
	Model *model.Model
	// Vocab, when non-nil, fills Response.Text and enables the HTTP
	// prompt codec.
	Vocab *token.Vocab
	// Width is the decode-batch capacity (default 8); the admission
	// queue holds 2×Width more before Submit blocks.
	Width int
	// DefaultMaxNew is max_tokens for requests that omit it (default 32).
	DefaultMaxNew int
	// MaxNewCap bounds per-request max_tokens (default MaxSeq).
	MaxNewCap int
	// SLO is the latency objective; finished requests slower than it
	// count as violations. 0 disables SLO accounting.
	SLO time.Duration
	// Inject, when non-nil, enables the live fault campaign.
	Inject *InjectConfig
	// Recorder, when non-nil and enabled, records per-request spans
	// (queue wait, first token, decode) for sampled requests. Purely
	// observational: tokens, outcomes, and fault sampling are
	// bit-identical with recording on or off.
	Recorder *obs.Recorder
}

// slowLog bounds the ring of recent SLO-violating requests kept for the
// dashboard.
const slowLog = 64

// Request is one generate call.
type Request struct {
	// ID labels the request in responses and logs.
	ID string
	// Prompt is the tokenized prompt (non-empty).
	Prompt []int
	// MaxNew bounds generated tokens; 0 takes the engine default.
	MaxNew int
	// Deadline, when positive, bounds the request's wall time.
	Deadline time.Duration
	// Seed drives campaign-mode fault sampling for this request; the
	// sampled site depends only on (engine seed, Seed).
	Seed uint64
	// Baseline, when non-nil, is the fault-free output of this request;
	// campaign mode classifies the served output against it.
	Baseline []int
	// Trace is the caller's trace context (from a traceparent header).
	// Invalid or zero means none; the engine starts a fresh trace when
	// the request is sampled. Advisory only — it never affects results.
	Trace obs.SpanContext
}

// Response is the outcome of one request. Err is nil on success;
// typed errors (ErrDraining, ErrInvalid, context errors) report
// rejection, deadline expiry, or cancellation. Tokens carries whatever
// was generated before the request ended either way.
type Response struct {
	ID string
	// Tokens is read-only: when the output equals Request.Baseline it is
	// that slice, not a copy — under injection most outputs are masked,
	// and a caller that keeps its responses keeps one array per baseline.
	Tokens  []int
	Text    string
	Steps   int
	Latency time.Duration
	// Injected / Fired / Site / Surface describe the campaign fault.
	Injected bool
	Fired    bool
	Site     string
	Surface  string
	// Outcome is the classification against Request.Baseline ("" when
	// no baseline or no injection).
	Outcome string
	// Detected counts flagged ABFT checks.
	Detected int
	// Trace is the root span context of this request's recorded trace
	// (zero when the request was not sampled).
	Trace obs.SpanContext
	Err   error
}

// reqTiming carries a request's observability state: the sampled-trace
// decision and context plus the phase timings the span exporter and the
// TTFT histogram consume. Zero value = unsampled, no timings.
type reqTiming struct {
	sampled bool
	root    obs.SpanContext
	parent  string // incoming span ID when the trace was propagated in

	enq       time.Time // when the request entered the admission queue
	admitted  time.Time // when it took a batch row
	queueWait time.Duration
	ttft      time.Duration
	hasTTFT   bool

	prefillAt time.Time // when the prompt's prefill started (zero: it never ran)
	prefill   time.Duration
	reused    int // prompt tokens forked from the prefix cache
}

// pending is a prefilled request waiting for a batch slot.
type pending struct {
	req   Request
	ctx   context.Context
	start time.Time
	st    *model.State
	// prefix is st's own logits buffer: nothing steps st between prefill
	// and admission, and the decode loop copies it on Admit.
	prefix []float32
	site   *faults.Site
	tm     reqTiming
	resp   chan Response
}

// flight is one admitted request occupying a decode-loop row.
type flight struct {
	p       *pending
	inj     *faults.Injection
	checker *abft.Checker
	lastTok time.Time // last decode-step completion, for inter-token gaps
}

// lane is a decode loop and the model its rows run on, which arming a
// request strikes. The scheduler owns one at Config.Width over the
// engine's model; each weight-resident request owns one at width 1 over
// its private clone. gen.Loop is the one greedy decode driver, shared
// with offline campaigns, and where the bit-identity argument lives.
type lane struct {
	loop *gen.Loop[*flight]
	m    *model.Model
}

// Engine is the serving core. Create with NewEngine, start the
// scheduler with Run (usually in its own goroutine), send traffic with
// Submit, and stop by cancelling Run's context: in-flight requests
// finish, queued and later ones get ErrDraining, then Run returns.
type Engine struct {
	cfg     Config
	m       *model.Model
	met     *Metrics
	sampler *faults.Sampler
	// table holds the clean-weight ABFT checksums of Config.Model, which
	// no request strikes (nil without Inject.ABFT): every request's
	// checker reads it, on the scheduler's lane or on a clone's.
	table *abft.Table
	cache *prefixCache
	queue chan *pending
	done  chan struct{}

	mu       sync.Mutex
	draining bool //llmfi:guardedby mu
	serial   sync.WaitGroup

	slowMu   sync.Mutex
	slow     []SlowRequest //llmfi:guardedby slowMu — ring, newest at slowNext-1
	slowNext int           //llmfi:guardedby slowMu
}

// SlowRequest is one SLO-violating request retained for the dashboard
// and slow-request log: enough to find the full trace (Trace) and to
// attribute the slowness (fault + detection annotations).
type SlowRequest struct {
	ID        string  `json:"id"`
	Trace     string  `json:"trace,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	SLOMS     float64 `json:"slo_ms"`
	Status    string  `json:"status"`
	Injected  bool    `json:"injected,omitempty"`
	Fired     bool    `json:"fired,omitempty"`
	Site      string  `json:"site,omitempty"`
	Surface   string  `json:"surface,omitempty"`
	Outcome   string  `json:"outcome,omitempty"`
	Detected  int     `json:"detected,omitempty"`
}

// noteSlow appends one entry to the slow-request ring.
func (e *Engine) noteSlow(sr SlowRequest) {
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	if len(e.slow) < slowLog {
		e.slow = append(e.slow, sr)
		e.slowNext = len(e.slow) % slowLog
		return
	}
	e.slow[e.slowNext] = sr
	e.slowNext = (e.slowNext + 1) % slowLog
}

// SlowRequests returns the retained SLO violations, newest first.
func (e *Engine) SlowRequests() []SlowRequest {
	e.slowMu.Lock()
	defer e.slowMu.Unlock()
	out := make([]SlowRequest, 0, len(e.slow))
	for i := 0; i < len(e.slow); i++ {
		j := e.slowNext - 1 - i
		if j < 0 {
			j += len(e.slow)
		}
		out = append(out, e.slow[j])
	}
	return out
}

// NewEngine validates cfg and builds an engine. Run must be started
// before Submit calls can complete.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Model == nil {
		return nil, errors.New("serve: Config.Model is required")
	}
	if cfg.Width <= 0 {
		cfg.Width = 8
	}
	if cfg.DefaultMaxNew <= 0 {
		cfg.DefaultMaxNew = 32
	}
	if cfg.MaxNewCap <= 0 {
		cfg.MaxNewCap = cfg.Model.Cfg.MaxSeq
	}
	if cfg.DefaultMaxNew > cfg.MaxNewCap {
		cfg.DefaultMaxNew = cfg.MaxNewCap
	}
	e := &Engine{
		cfg:   cfg,
		m:     cfg.Model,
		met:   NewMetrics(),
		queue: make(chan *pending, 2*cfg.Width),
		done:  make(chan struct{}),
	}
	e.cache = newPrefixCache(cfg.Model, cfg.Width, e.met)
	if inj := cfg.Inject; inj != nil {
		if len(inj.Surfaces) == 0 {
			inj.Surfaces = []faults.Surface{faults.SurfaceLinear}
		}
		for _, s := range inj.Surfaces {
			if s == faults.SurfaceLinear {
				sp, err := faults.NewSampler(cfg.Model, nil)
				if err != nil {
					return nil, err
				}
				e.sampler = sp
			}
		}
		if inj.ABFT != nil {
			e.table = inj.ABFT.Table(cfg.Model)
		}
	}
	return e, nil
}

// Metrics exposes the engine's serving counters.
func (e *Engine) Metrics() *Metrics { return e.met }

// Recorder exposes the engine's span recorder (nil when tracing is off;
// obs.Recorder methods are nil-safe).
func (e *Engine) Recorder() *obs.Recorder { return e.cfg.Recorder }

// sampleTrace makes the per-request trace decision. The root context
// continues the caller's propagated trace when one came in, otherwise
// starts fresh.
func (e *Engine) sampleTrace(req *Request) reqTiming {
	var tm reqTiming
	if !e.cfg.Recorder.SampleRoot() {
		return tm
	}
	tm.sampled = true
	tm.root = e.cfg.Recorder.Child(req.Trace)
	if req.Trace.Valid() {
		tm.parent = req.Trace.Span
	}
	return tm
}

// validate normalizes req in place.
func (e *Engine) validate(req *Request) error {
	if len(req.Prompt) == 0 {
		return fmt.Errorf("%w: empty prompt", ErrInvalid)
	}
	if req.MaxNew == 0 {
		req.MaxNew = e.cfg.DefaultMaxNew
	}
	if req.MaxNew < 0 || req.MaxNew > e.cfg.MaxNewCap {
		return fmt.Errorf("%w: max_tokens %d outside (0, %d]", ErrInvalid, req.MaxNew, e.cfg.MaxNewCap)
	}
	if len(req.Prompt)+req.MaxNew > e.m.Cfg.MaxSeq {
		return fmt.Errorf("%w: prompt %d + max_tokens %d exceeds context %d",
			ErrInvalid, len(req.Prompt), req.MaxNew, e.m.Cfg.MaxSeq)
	}
	return nil
}

// sampleSite draws the request's fault site — a pure function of the
// engine's campaign seed and the request's own seed, independent of
// admission order, batch composition, and sibling requests.
func (e *Engine) sampleSite(req *Request) (faults.Site, error) {
	inj := e.cfg.Inject
	src := prng.New(inj.Seed).Split(req.Seed)
	surf := inj.Surfaces[src.Intn(len(inj.Surfaces))]
	return faults.SampleSurface(src, e.sampler, e.m, surf, inj.Fault, req.MaxNew, len(req.Prompt))
}

// Submit runs one request to completion and returns its Response. It
// blocks for the request's full latency; callers wanting concurrency
// use one goroutine per stream (see loadgen). Respect ctx: cancelling
// it abandons the request at the next decode step.
func (e *Engine) Submit(ctx context.Context, req Request) Response {
	start := time.Now()
	if err := e.validate(&req); err != nil {
		e.met.observeRejected(statusInvalid)
		return Response{ID: req.ID, Err: err}
	}
	e.met.requestStarted()
	defer e.met.requestDone()
	tm := e.sampleTrace(&req)

	if req.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Deadline)
		defer cancel()
	}

	var site *faults.Site
	if e.cfg.Inject != nil {
		s, err := e.sampleSite(&req)
		if err != nil {
			e.met.observeRejected(statusInvalid)
			return Response{ID: req.ID, Err: fmt.Errorf("%w: %v", ErrInvalid, err)}
		}
		site = &s
	}

	// A request that cannot be served is refused before it costs a prefill.
	select {
	case <-ctx.Done():
		return e.finishErr(req.ID, start, ctx.Err())
	default:
	}
	p := &pending{req: req, ctx: ctx, start: start, site: site, tm: tm, resp: make(chan Response, 1)}
	if site != nil && site.WeightResident() {
		// Weight-resident faults flip shared parameter storage; they
		// cannot ride a shared batch. Decode alone on a private
		// copy-on-write clone, in this goroutine.
		if !e.trackSerial() {
			e.met.observeRejected(statusDraining)
			return Response{ID: req.ID, Err: ErrDraining}
		}
		defer e.serial.Done()
		return e.runAlone(p)
	}
	if e.isDraining() {
		e.met.observeRejected(statusDraining)
		return Response{ID: req.ID, Err: ErrDraining}
	}

	// Prefill here, concurrently with other submitters: the state is
	// private and the shared weights are read-only on this path.
	e.prefill(e.m, p)
	p.tm.enq = time.Now()
	select {
	case e.queue <- p:
	case <-ctx.Done():
		return e.finishErr(req.ID, start, ctx.Err())
	case <-e.done:
		e.met.observeRejected(statusDraining)
		return Response{ID: req.ID, Err: ErrDraining}
	}
	select {
	case r := <-p.resp:
		return r
	case <-e.done:
		// Prefer a response that raced the drain.
		select {
		case r := <-p.resp:
			return r
		default:
			e.met.observeRejected(statusDraining)
			return Response{ID: req.ID, Err: ErrDraining}
		}
	}
}

// prefill gives p its state on m, the engine's model or a clone of it, at
// the end of the prompt, and the logits there — the one place a served
// prompt is computed. It forks the cached prefix sharing the most leading
// tokens with the prompt and prefills only the rest (an exact repeat
// computes its last token), then caches the prompt's own rows if the
// engine keeps seeing it. A hook or checker registered on m itself would
// be shown every prompt position by a full prefill, so such a model goes
// uncached; what the engine arms is per request and comes after.
func (e *Engine) prefill(m *model.Model, p *pending) {
	prompt := p.req.Prompt
	p.tm.prefillAt = time.Now()
	var (
		px    *model.Prefix
		admit bool
	)
	if !m.Observed() {
		px, p.tm.reused, admit = e.cache.lookup(prompt)
	}
	if p.tm.reused > 0 {
		p.st = px.ForkInto(m, nil, p.tm.reused)
	} else {
		p.st = m.NewState()
	}
	p.prefix = p.st.Prefill(prompt[p.tm.reused:])
	if admit {
		e.cache.insert(prompt, p.st.Snapshot())
	}
	p.tm.prefill = time.Since(p.tm.prefillAt)
	e.met.observePrefill(p.tm.reused, len(prompt)-p.tm.reused)
}

// isDraining reports whether shutdown has begun.
func (e *Engine) isDraining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// trackSerial registers a serial-path request with the drain barrier.
func (e *Engine) trackSerial() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return false
	}
	e.serial.Add(1)
	return true
}

// Run is the scheduler: it owns the engine's decode loop, admits pending
// requests into free rows and steps them to completion. It returns
// after ctx is cancelled AND every in-flight request (batched and
// alone) has finished — the graceful-drain contract behind the SIGINT
// handling in cmd/llmfi.
func (e *Engine) Run(ctx context.Context) error {
	ln := &lane{loop: gen.NewLoop[*flight](e.m, e.cfg.Width), m: e.m}
	running := true

	for {
		if running && ctx.Err() != nil {
			running = false
			e.mu.Lock()
			e.draining = true
			e.mu.Unlock()
			e.failQueued()
		}
		if ln.loop.Len() == 0 {
			if !running {
				break
			}
			select {
			case p := <-e.queue:
				e.admit(ln, p)
			case <-ctx.Done():
			}
			continue
		}
		if running {
		topUp:
			for ln.loop.Free() > 0 {
				select {
				case p := <-e.queue:
					e.admit(ln, p)
				default:
					break topUp
				}
			}
		}
		e.step(ln)
	}

	e.serial.Wait()
	close(e.done)
	return nil
}

// failQueued rejects every request still waiting in the queue buffer.
func (e *Engine) failQueued() {
	for {
		select {
		case p := <-e.queue:
			e.met.observeRejected(statusDraining)
			p.resp <- Response{ID: p.req.ID, Err: ErrDraining}
		default:
			return
		}
	}
}

// runAlone serves a weight-resident-fault request on a private
// copy-on-write clone: clean prefill, then the scheduler's own admit and
// step on a width-1 loop over the clone. Sibling requests never observe
// the flip — the clone privatizes the struck storage before writing.
// Without a queue, TTFT is prefill time.
func (e *Engine) runAlone(p *pending) Response {
	wm := e.m.CloneShared()
	e.prefill(wm, p)
	ln := &lane{loop: gen.NewLoop[*flight](wm, 1), m: wm}
	e.admit(ln, p)
	for ln.loop.Len() > 0 {
		e.step(ln)
	}
	return <-p.resp
}

// admit puts a prefilled request on ln: arm its fault and checker on its
// own row (on the goroutine that owns ln, between steps) and take the
// first token off the prefix logits. A request that ends there is answered without ever
// occupying a row.
func (e *Engine) admit(ln *lane, p *pending) {
	f := &flight{p: p}
	var arm gen.Arm
	if p.site != nil {
		var err error
		if arm, err = e.arm(ln, f); err != nil {
			e.respond(f, gen.Result{}, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
	}
	s := ln.loop.Admit(p.st, p.prefix, gen.Defaults(p.req.MaxNew), arm, f)
	if s.Done() {
		e.retire(ln, s, nil)
		return
	}
	// The first generated token materializes here, off the prefix
	// logits: this is the request's TTFT.
	p.tm.admitted = time.Now()
	if !p.tm.enq.IsZero() { // a request on a lane of its own never queued
		p.tm.queueWait = p.tm.admitted.Sub(p.tm.enq)
	}
	p.tm.ttft = p.tm.admitted.Sub(p.start)
	p.tm.hasTTFT = true
	e.met.observeTTFT(p.tm.ttft)
	f.lastTok = p.tm.admitted
}

// arm builds the request's checker over the engine's table, arms its
// fault on ln's model and returns the observers scoped to the request's
// own row. A weight-resident site flips ln.m itself:
// Submit routed it to runAlone, where ln.m is a private clone.
func (e *Engine) arm(ln *lane, f *flight) (gen.Arm, error) {
	site := *f.p.site
	var arm gen.Arm
	var err error
	if a := e.cfg.Inject.ABFT; a != nil {
		// Only a linear site has a checksum to protect; a kv site's
		// Layer.Kind names a linear layer, but the strike is in the cache.
		var protect []model.LayerRef
		if site.Surface == faults.SurfaceLinear {
			protect = []model.LayerRef{site.Layer}
		}
		if f.checker, err = a.Checker(e.table, protect...); err != nil {
			return arm, err
		}
		arm.Checker = f.checker
	}
	if f.inj, err = faults.New(ln.m, site, len(f.p.req.Prompt)); err != nil {
		return arm, err
	}
	if h := f.inj.Hook; h != nil {
		arm.Hooks = []model.Hook{h}
	}
	if h := f.inj.AttnHook; h != nil {
		arm.AttnHooks = []model.Hook{h}
	}
	arm.BeforeStep = f.inj.BeforeStep
	return arm, nil
}

// step advances every live request on ln by one token. Cancelled and
// expired requests are swept out first, so no step is spent on them.
func (e *Engine) step(ln *lane) {
	ln.loop.Drop(func(s *gen.Seq[*flight]) bool {
		err := s.Owner.p.ctx.Err()
		if err != nil {
			e.retire(ln, s, err)
		}
		return err != nil
	})
	if ln.loop.Len() == 0 {
		return
	}
	finished := ln.loop.Step()

	// One clock read covers the whole stacked step: each request that
	// rode it produced one token, so the gap since its previous token is
	// an inter-token latency sample.
	stepAt := time.Now()
	tick := func(f *flight) {
		e.met.observeInterToken(stepAt.Sub(f.lastTok))
		f.lastTok = stepAt
	}
	for _, s := range ln.loop.Live() {
		tick(s.Owner)
	}
	for _, s := range finished {
		tick(s.Owner)
		e.retire(ln, s, nil)
	}
}

// retire takes a finished or abandoned request off ln and answers it.
func (e *Engine) retire(ln *lane, s *gen.Seq[*flight], err error) {
	ln.loop.Release(s)
	e.respond(s.Owner, s.Result(), err)
}

// respond finishes a flight: score, classify, record, reply.
func (e *Engine) respond(f *flight, res gen.Result, err error) {
	fired := false
	if f.inj != nil {
		fired = f.inj.Fired
		f.inj.Disarm()
	}
	detected := 0
	if f.checker != nil {
		detected = f.checker.Stats().Flagged
		e.met.observeDetection(detected)
	}
	f.p.resp <- e.finish(f.p.req, f.p.start, res.Tokens, res.Steps, f.p.site, err, fired, detected, f.p.tm)
}

// finish assembles the Response and records the request's metrics,
// spans, and (when SLO-violating) the slow-request log entry.
func (e *Engine) finish(req Request, start time.Time, tokens []int, steps int, site *faults.Site, err error, fired bool, detected int, tm reqTiming) Response {
	latency := time.Since(start)
	// An output equal to the baseline shares the baseline's array: the
	// caller holds that one already, and the decode's copy is dropped.
	masked := req.Baseline != nil && slices.Equal(tokens, req.Baseline)
	if masked {
		tokens = req.Baseline
	}
	resp := Response{
		ID:       req.ID,
		Tokens:   tokens,
		Steps:    steps,
		Latency:  latency,
		Fired:    fired,
		Detected: detected,
		Err:      err,
	}
	if e.cfg.Vocab != nil {
		resp.Text = e.cfg.Vocab.Decode(tokens)
	}
	st := statusOK
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		st = statusDeadline
	case errors.Is(err, context.Canceled):
		st = statusCanceled
	case err != nil:
		st = statusInvalid
	}
	if site != nil {
		resp.Injected = true
		resp.Site = site.String()
		resp.Surface = site.Surface.String()
		e.met.observeInjected()
		if req.Baseline != nil && err == nil {
			an := outcome.Classify(tokens, req.Baseline, masked, outcome.Thresholds{})
			resp.Outcome = an.Class.String()
			e.met.observeOutcome(an.Class)
		}
	}
	e.met.observeRequest(st, latency, len(tokens))
	if tm.sampled {
		resp.Trace = tm.root
		e.recordRequestSpans(resp, st, start, latency, tm, steps)
	}
	if e.cfg.SLO > 0 && latency > e.cfg.SLO {
		e.met.observeSLOViolation()
		e.noteSlow(SlowRequest{
			ID:        req.ID,
			Trace:     tm.root.Trace,
			LatencyMS: float64(latency) / float64(time.Millisecond),
			SLOMS:     float64(e.cfg.SLO) / float64(time.Millisecond),
			Status:    st.String(),
			Injected:  resp.Injected,
			Fired:     fired,
			Site:      resp.Site,
			Surface:   resp.Surface,
			Outcome:   resp.Outcome,
			Detected:  detected,
		})
	}
	return resp
}

// recordRequestSpans emits the sampled request's span tree: a root
// "request" span carrying the outcome annotations, plus prefill /
// queue_wait / first_token / decode children when the request got that
// far.
func (e *Engine) recordRequestSpans(resp Response, st reqStatus, start time.Time, latency time.Duration, tm reqTiming, steps int) {
	rec := e.cfg.Recorder
	attrs := []obs.Attr{
		obs.Str("id", resp.ID),
		obs.Str("status", st.String()),
		obs.Int("tokens", int64(len(resp.Tokens))),
		obs.Int("steps", int64(steps)),
	}
	if resp.Injected {
		attrs = append(attrs,
			obs.Str("site", resp.Site),
			obs.Str("surface", resp.Surface),
			obs.Int("fired", boolInt(resp.Fired)),
			obs.Int("detected", int64(resp.Detected)))
		if resp.Outcome != "" {
			attrs = append(attrs, obs.Str("outcome", resp.Outcome))
		}
	}
	rec.Record(obs.NewSpan(tm.root, tm.parent, "request", start, latency, attrs...))
	if !tm.prefillAt.IsZero() {
		rec.Record(obs.NewSpan(rec.Child(tm.root), tm.root.Span, "prefill", tm.prefillAt, tm.prefill,
			obs.Int("reused_tokens", int64(tm.reused))))
	}
	if tm.hasTTFT {
		if tm.queueWait > 0 {
			rec.Record(obs.NewSpan(rec.Child(tm.root), tm.root.Span, "queue_wait",
				tm.admitted.Add(-tm.queueWait), tm.queueWait))
		}
		rec.Record(obs.NewSpan(rec.Child(tm.root), tm.root.Span, "first_token",
			start, tm.ttft))
		sp := obs.NewSpan(rec.Child(tm.root), tm.root.Span, "decode",
			tm.admitted, latency-tm.ttft)
		sp.Count = steps
		rec.Record(sp)
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// finishErr records a request that failed before reaching a batch row.
func (e *Engine) finishErr(id string, start time.Time, err error) Response {
	latency := time.Since(start)
	st := statusCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		st = statusDeadline
	}
	e.met.observeRequest(st, latency, 0)
	if e.cfg.SLO > 0 && latency > e.cfg.SLO {
		e.met.observeSLOViolation()
	}
	return Response{ID: id, Latency: latency, Err: err}
}
