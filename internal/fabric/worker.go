package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/prom"
	"repro/internal/report"
	"repro/internal/version"
)

// RemoteError is a coordinator-side rejection: the JSON error envelope
// decoded into an error value. Status < 500 rejections are permanent
// (the request itself is wrong — mismatched fingerprint, bad index);
// transport failures and 5xx responses are retried.
type RemoteError struct {
	Status  int
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("coordinator rejected request (%d %s): %s", e.Status, e.Code, e.Message)
}

// WorkerConfig configures a fleet worker.
type WorkerConfig struct {
	// Campaign is the worker's locally-constructed campaign definition.
	// It must be identical to the coordinator's — the join handshake
	// compares fingerprints and refuses divergent configurations.
	Campaign core.Campaign
	// Coordinator is the coordinator's base URL (e.g. "http://host:8080").
	Coordinator string
	// Name, when set, joins under a fixed identity (and reclaims it after
	// a reconnect). Empty lets the coordinator assign one.
	Name string
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
	// Poll is the sleep between lease requests while every remaining
	// trial is leased elsewhere (default 200ms).
	Poll time.Duration
	// SubmitEvery is the number of completed trials per results
	// submission (default 8). Submissions double as heartbeats, so the
	// batch size bounds how long the worker goes silent mid-lease.
	SubmitEvery int
	// Logf, when set, receives progress lines (log.Printf-compatible).
	Logf func(format string, args ...any)
	// HTTPAddr, when set, is the base URL of this worker's own
	// observability listener (serve Handler() there). It is advertised
	// at join so the coordinator's fan-in scrapes it.
	HTTPAddr string
	// Recorder, when non-nil and enabled, records worker-side spans
	// (lease execution + per-trial phase spans) continuing the trace
	// context the coordinator propagates on lease responses.
	Recorder *obs.Recorder
}

// Worker executes leased trial-index ranges through the core runtime
// and streams completed trials back to the coordinator. The fault-free
// baseline is evaluated once, during the first lease, and reused for
// every later lease.
type Worker struct {
	cfg      WorkerConfig
	name     string
	baseline *core.Baseline
	executed int

	// leaseCtx is the trace context of the current lease, captured from
	// the coordinator's traceparent response header and echoed on result
	// submissions. recvTP holds the most recent response's traceparent
	// (zero when absent/malformed). Run is single-goroutine, so plain
	// fields suffice.
	leaseCtx obs.SpanContext
	recvTP   obs.SpanContext

	// Self-metrics for the worker's own /metrics surface. The campaign
	// telemetry registry resets per runner run (per lease), so lease-
	// lifetime counters live here as plain atomics instead.
	selfLeases     atomic.Int64
	selfTrials     atomic.Int64
	selfSubmits    atomic.Int64
	selfDuplicates atomic.Int64
}

// NewWorker validates the configuration and returns a worker ready to
// Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Campaign.Trials <= 0 {
		return nil, core.ErrNoTrials
	}
	if cfg.Coordinator == "" {
		return nil, errors.New("fabric: coordinator URL required")
	}
	cfg.Coordinator = strings.TrimSuffix(cfg.Coordinator, "/")
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	if cfg.SubmitEvery <= 0 {
		cfg.SubmitEvery = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{cfg: cfg, name: cfg.Name}, nil
}

// Name returns the worker's fleet identity (assigned at join).
func (w *Worker) Name() string { return w.name }

// Executed returns the number of trials this worker has submitted.
func (w *Worker) Executed() int { return w.executed }

// Handler returns the worker's own observability surface: /metrics
// (self-counters in Prometheus text format, the series the
// coordinator's fan-in scrapes and re-exports as llmfi_fleet_*) and
// /healthz. Serve it on the address advertised via WorkerConfig.HTTPAddr.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", w.handleMetrics)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		report.WriteJSON(rw, struct {
			Status string `json:"status"`
			Worker string `json:"worker"`
			Trials int64  `json:"trials"`
		}{Status: "ok", Worker: w.name, Trials: w.selfTrials.Load()})
	})
	return mux
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", prom.ContentType)
	_ = prom.WriteBuildInfo(rw, SchemaVersion)
	// The llmfi_worker_self_* prefix keeps these distinct from the
	// campaign telemetry's llmfi_worker_* (pool workers) and the
	// coordinator's llmfi_fabric_worker_* (fleet view) families.
	pw := prom.NewWriter(rw)
	pw.Counter("llmfi_worker_self_leases_total", "Leases this worker has executed.", w.selfLeases.Load())
	pw.Counter("llmfi_worker_self_trials_total", "Trials this worker has completed and submitted.", w.selfTrials.Load())
	pw.Counter("llmfi_worker_self_submits_total", "Result submissions posted to the coordinator.", w.selfSubmits.Load())
	pw.Counter("llmfi_worker_self_duplicates_total", "Submitted trials the coordinator discarded as duplicates.", w.selfDuplicates.Load())
	pw.Counter("llmfi_worker_self_spans_total", "Spans recorded by this worker's recorder.", int64(w.cfg.Recorder.Count()))
	_ = pw.Flush()
}

// Run joins the fleet and works leases until the campaign completes
// (returns nil), ctx is cancelled, or the coordinator permanently
// rejects the worker (mismatched schema/version/fingerprint).
func (w *Worker) Run(ctx context.Context) error {
	if err := w.join(ctx); err != nil {
		return err
	}
	for {
		var resp LeaseResponse
		err := w.post(ctx, PathLease, obs.SpanContext{}, LeaseRequest{Schema: SchemaVersion, Worker: w.name}, &resp)
		var re *RemoteError
		switch {
		case errors.As(err, &re) && re.Code == "unknown_worker":
			// The coordinator restarted and lost the fleet registry;
			// rejoin under the same identity and carry on.
			w.cfg.Logf("fabric worker %s: coordinator does not know us; rejoining", w.name)
			if err := w.join(ctx); err != nil {
				return err
			}
		case err != nil:
			return err
		case resp.Done:
			w.cfg.Logf("fabric worker %s: campaign complete (%d trials executed here)", w.name, w.executed)
			return nil
		case resp.Lease != nil:
			// The coordinator propagates its lease span's trace context on
			// the response header; adopting it here is what stitches this
			// worker's spans into the coordinator-side trace.
			w.leaseCtx = w.recvTP
			if err := w.execute(ctx, resp.Lease); err != nil {
				return err
			}
		default:
			// Everything pending is leased to other workers; an
			// outstanding lease may complete or expire, so poll again.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.cfg.Poll):
			}
		}
	}
}

// join performs the fleet handshake. A version, schema, or fingerprint
// mismatch is a permanent RemoteError — the worker would compute
// different trials than the coordinator expects.
func (w *Worker) join(ctx context.Context) error {
	req := JoinRequest{
		Schema:      SchemaVersion,
		Version:     version.Version,
		Fingerprint: w.cfg.Campaign.Fingerprint(),
		Worker:      w.name,
		HTTPAddr:    w.cfg.HTTPAddr,
	}
	var resp JoinResponse
	if err := w.post(ctx, PathJoin, obs.SpanContext{}, req, &resp); err != nil {
		return err
	}
	w.name = resp.Worker
	w.cfg.Logf("fabric worker %s: joined — %d trials total, lease ttl %dms, %d trials/lease",
		w.name, resp.Trials, resp.LeaseTTLMs, resp.LeaseTrials)
	return nil
}

// execute runs one lease's indices through the core runtime, streaming
// completed trials back in batches. Each submission renews the lease
// server-side, so a healthy worker never loses a lease mid-run.
func (w *Worker) execute(ctx context.Context, l *Lease) error {
	w.cfg.Logf("fabric worker %s: lease %d — %d trials", w.name, l.ID, len(l.Indices))
	w.selfLeases.Add(1)
	// No WithCheckpoint: trial persistence is the coordinator's job, and
	// two workers sharing a path would clobber each other.
	opts := []core.RunnerOption{core.WithOnly(l.Indices)}
	if w.baseline != nil {
		opts = append(opts, core.WithBaseline(w.baseline))
	}
	rec := w.cfg.Recorder
	traced := rec.SampleRoot()
	var execCtx obs.SpanContext
	start := time.Now()
	if traced {
		// Child of the coordinator's lease span when the lease response
		// carried one; a fresh worker-local root otherwise. Either way the
		// observer below only reads phase timings the runner already
		// produced — it cannot feed anything back into trial outcomes.
		execCtx = rec.Child(w.leaseCtx)
		opts = append(opts, core.WithSpanObserver(report.TrialSpanObserver(rec, execCtx, false)))
	}
	r := core.NewRunner(w.cfg.Campaign, opts...)
	batch := make([]TrialResult, 0, w.cfg.SubmitEvery)
	var runErr error
	for ev := range r.Stream(ctx) {
		switch e := ev.(type) {
		case core.BaselineReady:
			w.baseline = e.Baseline
		case core.TrialDone:
			w.selfTrials.Add(1)
			batch = append(batch, TrialResult{Index: e.Index, Trial: e.Trial})
			if len(batch) >= w.cfg.SubmitEvery {
				if err := w.submit(ctx, l.ID, batch); err != nil {
					return err
				}
				batch = batch[:0]
			}
		case core.CampaignDone:
			runErr = e.Err
		}
	}
	if runErr != nil {
		return runErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(batch) > 0 {
		if err := w.submit(ctx, l.ID, batch); err != nil {
			return err
		}
	}
	if traced {
		var parent string
		if w.leaseCtx.Valid() {
			parent = w.leaseCtx.Span
		}
		rec.Record(obs.NewSpan(execCtx, parent, "lease_execute", start, time.Since(start),
			obs.Str("worker", w.name),
			obs.Int("lease", int64(l.ID)),
			obs.Int("trials", int64(len(l.Indices)))))
	}
	return nil
}

// submit posts one batch of completed trials. Duplicates (the batch
// re-executed a reissued index) are the coordinator's to count; the
// worker only tracks what it ran.
func (w *Worker) submit(ctx context.Context, lease uint64, trials []TrialResult) error {
	req := ResultsRequest{
		Schema: SchemaVersion,
		Worker: w.name,
		Lease:  lease,
		Trials: trials,
	}
	var resp ResultsResponse
	// Echoing the lease's trace context on the submission is what lets
	// the coordinator count this result as stitched to its trace.
	if err := w.post(ctx, PathResults, w.leaseCtx, req, &resp); err != nil {
		return err
	}
	w.executed += len(trials)
	w.selfSubmits.Add(1)
	w.selfDuplicates.Add(int64(resp.Duplicates))
	if resp.Duplicates > 0 {
		w.cfg.Logf("fabric worker %s: %d of %d submitted trials were duplicates (lease reissue race)",
			w.name, resp.Duplicates, len(trials))
	}
	return nil
}

// post sends one JSON request and decodes the response, retrying
// transport failures and 5xx responses with exponential backoff until
// ctx is cancelled. Status < 500 envelopes return as *RemoteError. A
// valid tp is attached as a traceparent request header; the response's
// traceparent (if any) lands in w.recvTP.
func (w *Worker) post(ctx context.Context, path string, tp obs.SpanContext, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	backoff := 250 * time.Millisecond
	for {
		err := w.postOnce(ctx, path, tp, body, resp)
		var re *RemoteError
		if err == nil || (errors.As(err, &re) && re.Status < 500) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.cfg.Logf("fabric worker %s: %s failed (%v); retrying in %s", w.name, path, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 4*time.Second {
			backoff *= 2
		}
	}
}

func (w *Worker) postOnce(ctx context.Context, path string, tp obs.SpanContext, body []byte, resp any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tp.Valid() {
		hreq.Header.Set(obs.TraceparentHeader, tp.Traceparent())
	}
	hres, err := w.cfg.Client.Do(hreq)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	w.recvTP, _ = obs.ParseTraceparent(hres.Header.Get(obs.TraceparentHeader))
	data, err := io.ReadAll(io.LimitReader(hres.Body, 8<<20))
	if err != nil {
		return err
	}
	if hres.StatusCode != http.StatusOK {
		// Deliberately tolerant sniff: the error body may be a typed
		// envelope or proxy-generated plaintext; extra fields must not
		// hide the error itself.
		var env report.APIError
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" { //llmfi:allow wireschema error-envelope sniff is tolerant by design
			return &RemoteError{Status: hres.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
		}
		return &RemoteError{Status: hres.StatusCode, Code: "http_error", Message: strings.TrimSpace(string(data))}
	}
	// Success payloads are strict: a coordinator speaking a newer wire
	// schema fails the decode instead of silently dropping fields.
	return report.StrictUnmarshal(data, resp)
}
