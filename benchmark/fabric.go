package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
)

const (
	fabricWorkers = 2
	// fabricChunk is the trial count of one timed fabric campaign (~850
	// trials/s on the reference box), fabricWarm that of the warm-up.
	fabricChunk = 960
	fabricWarm  = 128
	leaseTrials = 16
	submitEvery = 8
)

// hop is one worker HTTP round trip, timed by the benchmark's
// RoundTripper from the request's start to the last byte of the reply.
type hop struct {
	worker     int
	path       string
	start, end time.Time
	bytes      int64 // request and response bodies
}

type hopLog struct {
	mu   sync.Mutex
	hops []hop
}

func (l *hopLog) add(h hop) {
	l.mu.Lock()
	l.hops = append(l.hops, h)
	l.mu.Unlock()
}

// hopTransport is the client-side instrument of the fabric workload, the
// counterpart of timing Target.Submit for serving: it is on in every
// run, and costs two clock reads per hop.
type hopTransport struct {
	worker int
	base   http.RoundTripper
	log    *hopLog
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := hop{worker: t.worker, path: req.URL.Path, start: time.Now(), bytes: req.ContentLength}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, h: h, log: t.log}
	return resp, nil
}

// hopBody ends the hop at the reply's last byte (or at Close, if the
// reader stops early).
type hopBody struct {
	io.ReadCloser
	h    hop
	log  *hopLog
	once sync.Once
}

func (b *hopBody) finish() {
	b.once.Do(func() {
		b.h.end = time.Now()
		b.log.add(b.h)
	})
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.h.bytes += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *hopBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// fabricChunkStat is one timed fabric campaign.
type fabricChunkStat struct {
	chunkStat
	res *core.Result
	// start and end bound the campaign: coordinator created to merged
	// Result returned. workerWall sums the workers' Run times.
	start, end time.Time
	workerWall time.Duration
	hops       []hop
	status     fabric.StatusResponse
	// handler is the time spent inside the coordinator's handlers
	// (traced chunks only).
	handler time.Duration
}

// runFabricChunk runs one campaign over the fabric: a coordinator behind
// a real HTTP server, two in-process workers of one core each.
func runFabricChunk(c core.Campaign, tr *tracer) (fabricChunkStat, error) {
	var ck fabricChunkStat
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	coCfg := fabric.CoordinatorConfig{Campaign: c, LeaseTrials: leaseTrials}
	if tr != nil {
		ck.traced = true
		coCfg.Recorder = tr.recorder("coordinator")
	}
	ck.start = time.Now()
	co, err := fabric.NewCoordinator(coCfg)
	if err != nil {
		return ck, err
	}
	handler := co.Handler()
	var handlerMu sync.Mutex
	if tr != nil {
		// Timing middleware: the coordinator's busy time is the time
		// inside its handlers.
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			d := time.Since(start)
			handlerMu.Lock()
			ck.handler += d
			handlerMu.Unlock()
		})
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	log := &hopLog{}
	base := &http.Transport{MaxIdleConnsPerHost: fabricWorkers}
	defer base.CloseIdleConnections()
	errs := make(chan error, fabricWorkers)
	walls := make(chan time.Duration, fabricWorkers)
	for i := 0; i < fabricWorkers; i++ {
		wcfg := fabric.WorkerConfig{
			Campaign:    c,
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("w%d", i),
			Client:      &http.Client{Transport: &hopTransport{worker: i, base: base, log: log}, Timeout: 30 * time.Second},
			Poll:        10 * time.Millisecond,
			SubmitEvery: submitEvery,
		}
		if tr != nil {
			wcfg.Recorder = tr.recorder("worker")
		}
		w, err := fabric.NewWorker(wcfg)
		if err != nil {
			return ck, err
		}
		go func() {
			start := time.Now()
			err := w.Run(ctx)
			walls <- time.Since(start)
			errs <- err
		}()
	}
	for i := 0; i < fabricWorkers; i++ {
		ck.workerWall += <-walls
		if err := <-errs; err != nil {
			cancel()
			return ck, fmt.Errorf("fabric worker: %w", err)
		}
	}
	if ck.res, err = co.Result(ctx); err != nil {
		return ck, err
	}
	ck.end = time.Now()
	ck.wall = ck.end.Sub(ck.start)
	ck.ops = c.Trials
	ck.status = co.Status()
	ck.hops = log.hops
	if tr != nil {
		for _, h := range ck.hops {
			root := tr.start()
			tr.end(root, "bench.hop."+path.Base(h.path), h.start, h.end.Sub(h.start),
				obs.Int("worker", int64(h.worker)), obs.Int("bytes", h.bytes))
		}
	}
	return ck, nil
}

// leaseGrants returns when each lease of a campaign was granted. A
// lease request with no result submission after it was an empty poll,
// not a lease. Hops are logged in completion order, which per worker is
// request order: a worker has one request in flight.
func leaseGrants(hops []hop) []time.Time {
	var (
		out       []time.Time
		granted   [fabricWorkers]time.Time // zero: no lease request yet
		submitted [fabricWorkers]bool
	)
	for _, h := range hops {
		switch h.path {
		case fabric.PathLease:
			granted[h.worker], submitted[h.worker] = h.end, false
		case fabric.PathResults:
			if !submitted[h.worker] && !granted[h.worker].IsZero() {
				out = append(out, granted[h.worker])
				submitted[h.worker] = true
			}
		}
	}
	return out
}

func fabricWorkload(cfg config, tr *tracer) (*report, error) {
	ctx := context.Background()
	spec := campaignSerial
	chunk := cfg.scaled(fabricChunk)
	warm := min(cfg.scaled(fabricWarm), chunk)
	ref := min(64, chunk)
	rep := &report{chunkOps: chunk, e2e: values{}, layer: values{}}

	// Set-up: model, suite, campaign, and a small campaign over the
	// fabric as the warm-up pass.
	c, setupS, err := medianSetup(cfg.setups, func() (core.Campaign, error) {
		c, err := spec.build(cfg.seed, chunk)
		if err != nil {
			return c, err
		}
		w := c
		w.Trials = warm
		_, err = runFabricChunk(w, nil)
		return c, err
	}, func(core.Campaign) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS

	var chunks []fabricChunkStat
	if rep.wall, err = timed(cfg, func(i int, traced bool) error {
		ck, err := runFabricChunk(c, tr.when(traced))
		chunks = append(chunks, ck)
		return err
	}); err != nil {
		return nil, err
	}

	// Output checks: the merged Result equals a serial single-process
	// run on its first trials, and every chunk equals the first.
	refRes, err := core.NewRunner(c, core.WithOnly(firstN(ref))).Run(ctx)
	if err != nil {
		return nil, err
	}
	first := chunks[0].res.Trials
	for i, ck := range chunks {
		trials := ck.res.Trials
		tally := ck.res.Tally()
		if len(trials) != chunk || tally.Masked+tally.Subtle+tally.Distorted != chunk || ck.status.Done != chunk {
			rep.fail(chunk, "chunk %d: %d trials, tally %+v, %d merged, want %d", i, len(trials), tally, ck.status.Done, chunk)
			continue
		}
		if n := diffTrials(trials[:ref], refRes.Trials[:ref]); n > 0 {
			rep.fail(n, "chunk %d: %d of the first %d trials differ from the single-process reference", i, n, ref)
		}
		if n := diffTrials(trials, first); n > 0 {
			rep.fail(n, "chunk %d: %d trials differ from chunk 0", i, n)
		}
	}

	var stats []chunkStat
	for _, ck := range chunks {
		stats = append(stats, ck.chunkStat)
	}
	rep.settle(stats, tr)

	fabricLayers(rep, chunks, tr)
	if cfg.traced {
		// One core's rate on the same campaign, in the same process.
		ck, err := runCampaignChunk(c, nil, false)
		if err != nil {
			return nil, err
		}
		if n := diffTrials(ck.res.Trials, first); n > 0 {
			rep.fail(n, "%d merged trials differ from the single-process campaign", n)
		}
		rep.layer["fabric.scaling_efficiency"] = rep.e2e["ops_per_s"] / (fabricWorkers * float64(ck.ops) / ck.wall.Seconds())
	}
	return rep, nil
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// fabricLayers fills the fabric metrics from the hops, the coordinator's
// status and, for the traced chunks, the handler timing and the workers'
// lease_execute spans.
func fabricLayers(rep *report, chunks []fabricChunkStat, tr *tracer) {
	var (
		join, lease, results                 []time.Duration
		wire, tail                           time.Duration
		tracedWall, tracedWork, handler      time.Duration
		tracedWire, tracedResults            time.Duration
		leases, bytes, reissued, dup, trials int
	)
	for _, ck := range chunks {
		grants := leaseGrants(ck.hops)
		leases += len(grants)
		var lastGrant time.Time
		for _, g := range grants {
			if g.After(lastGrant) {
				lastGrant = g
			}
		}
		tail += ck.end.Sub(lastGrant)
		for _, h := range ck.hops {
			d := h.end.Sub(h.start)
			wire += d
			bytes += int(h.bytes)
			switch h.path {
			case fabric.PathJoin:
				join = append(join, d)
			case fabric.PathLease:
				lease = append(lease, d)
			case fabric.PathResults:
				results = append(results, d)
				if ck.traced {
					tracedResults += d
				}
			}
			if ck.traced {
				tracedWire += d
			}
		}
		reissued += ck.status.ReissuedLeases
		dup += ck.status.DuplicateTrials
		trials += ck.ops
		if ck.traced {
			tracedWall += ck.wall
			tracedWork += ck.workerWall
			handler += ck.handler
		}
	}
	l := rep.layer
	l["fabric.leases"] = float64(leases)
	l["fabric.join_rtt_ms"] = ms(meanDuration(join))
	l["fabric.lease_rtt_ms_p50"] = ms(percentile(lease, 0.50))
	l["fabric.results_rtt_ms_p50"] = ms(percentile(results, 0.50))
	l["fabric.results_rtt_ms_p99"] = ms(percentile(results, 0.99))
	l["fabric.wire_ms_per_lease"] = ratio(ms(wire), float64(leases))
	l["fabric.wire_bytes_per_trial"] = ratio(float64(bytes), float64(trials))
	l["fabric.tail_s"] = ratio(tail.Seconds(), float64(len(chunks)))
	l["fabric.reissued_leases"] = float64(reissued)
	l["fabric.duplicate_trials"] = float64(dup)
	outcomeCounts(l, chunks[0].res)
	if tr != nil && tracedWall > 0 {
		// A worker executes while a lease_execute span is open and it is
		// not submitting; it is on the wire during its hops; the rest of
		// its time it waits (for a lease, for the poll interval).
		var exec float64
		for _, d := range durations(tr.snapshot(), "lease_execute") {
			exec += d.Seconds()
		}
		exec -= tracedResults.Seconds()
		l["fabric.coordinator_busy_share"] = ratio(handler.Seconds(), tracedWall.Seconds())
		l["fabric.worker_exec_share"] = ratio(exec, tracedWork.Seconds())
		l["fabric.worker_wait_share"] = 1 - l["fabric.worker_exec_share"] - ratio(tracedWire.Seconds(), tracedWork.Seconds())
	}
}
