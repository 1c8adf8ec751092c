package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/prng"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/token"
)

// serveWidth is the engine's decode-batch capacity in both workloads.
const serveWidth = 8

// Indices of serve.MetricsSnapshot.Requests, in the order of the
// engine's status labels (ok, invalid, deadline_exceeded, canceled,
// draining).
const (
	reqOK = iota
	reqInvalid
	reqDeadline
	reqCanceled
	reqDraining
)

// serveSpec is one serving workload. Both are closed loops: a client
// sends its next request when the previous one has been answered.
type serveSpec struct {
	// overHTTP drives the engine through its wire API on a real server;
	// otherwise clients call Engine.Submit in process.
	overHTTP bool
	clients  int
	inject   bool
	// pool is the number of prompts requests cycle through; 0 makes
	// every prompt of the run unique.
	pool int
	// maxNew is max_tokens of every request; 0 draws it from 8..32.
	maxNew int
	// chunk is the request count of one timed chunk, warm that of the
	// warm-up pass of every set-up.
	chunk, warm int
}

var (
	// ~150 req/s on the reference box: two clients, lightly loaded, so
	// latency is service time. No prompt repeats.
	serveClean = serveSpec{overHTTP: true, clients: 2, chunk: 200, warm: 50}
	// ~175 req/s: as many clients as batch rows, one fault per request
	// over all five surfaces, every row checked.
	serveFaults = serveSpec{clients: serveWidth, inject: true, pool: 32, maxNew: 24, chunk: 256, warm: 48}
)

// randomPrompts draws n prompts of 16 to 120 words of the general
// vocabulary. The lengths are spread evenly over that range and only
// their order is drawn, so every seed and every chunk carries the same
// amount of prefill work.
func randomPrompts(src *prng.Source, vocab *token.Vocab, n int) [][]int {
	out := make([][]int, n)
	for i, slot := range src.Perm(n) {
		p := make([]int, 16+slot*105/n)
		psrc := src.Split(uint64(i))
		for j := range p {
			p[j] = token.NumReserved + psrc.Intn(vocab.Size()-token.NumReserved)
		}
		out[i] = p
	}
	return out
}

// maxNewFor is a request's max_tokens, a function of its seed so that
// the output check can recompute it. Without a fixed value it cycles
// through 8..32, each value once in 25 consecutive requests.
func (s serveSpec) maxNewFor(seed uint64) int {
	if s.maxNew > 0 {
		return s.maxNew
	}
	return 8 + int(seed*7%25)
}

// engine is a running serve.Engine and the target clients reach it by.
type engine struct {
	e      *serve.Engine
	cancel context.CancelFunc
	done   chan error
	srv    *httptest.Server
	tgt    loadgen.Target
}

func (s serveSpec) startEngine(m *model.Model, vocab *token.Vocab, seed uint64, rec *obs.Recorder) (*engine, error) {
	cfg := serve.Config{Model: m, Vocab: vocab, Width: serveWidth, Recorder: rec}
	if s.inject {
		cfg.Inject = &serve.InjectConfig{
			Fault:    faults.Comp1Bit,
			Surfaces: faults.Surfaces,
			Seed:     seed,
			ABFT:     &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true},
		}
	}
	e, err := serve.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	en := &engine{e: e, cancel: cancel, done: make(chan error, 1), tgt: e}
	go func() { en.done <- e.Run(ctx) }()
	if s.overHTTP {
		en.srv = httptest.NewServer(e.Handler())
		// One keep-alive connection per client.
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients}}
		en.tgt = &loadgen.HTTPTarget{Base: en.srv.URL, Vocab: vocab, Client: client}
	}
	return en, nil
}

// stop drains the engine and waits for its scheduler to return.
func (en *engine) stop() error {
	if en == nil {
		return nil
	}
	if en.srv != nil {
		en.srv.Close()
	}
	en.cancel()
	return <-en.done
}

// timedTarget is the benchmark's client: it fixes the request's
// max_tokens, times Submit from outside, and on a traced chunk records
// a bench.submit span that the engine's own request spans hang under.
type timedTarget struct {
	inner  loadgen.Target
	maxNew func(seed uint64) int
	tr     *tracer
}

func (t *timedTarget) Submit(ctx context.Context, req serve.Request) serve.Response {
	req.MaxNew = t.maxNew(req.Seed)
	var sc obs.SpanContext
	if t.tr != nil {
		sc = t.tr.start()
		req.Trace = sc
	}
	start := time.Now()
	resp := t.inner.Submit(ctx, req)
	resp.Latency = time.Since(start)
	if t.tr != nil {
		t.tr.end(sc, "bench.submit", start, resp.Latency, obs.Str("op", req.ID))
	}
	return resp
}

// serveState is a set-up serving workload.
type serveState struct {
	m         *model.Model
	vocab     *token.Vocab
	plain     *engine
	traced    *engine // nil on an untraced run
	pool      [][]int
	baselines [][]int
	warm      []serve.Response
}

func (st *serveState) stop() error {
	err := st.plain.stop()
	if e := st.traced.stop(); err == nil {
		err = e
	}
	return err
}

// serveChunk is one timed chunk of requests.
type serveChunk struct {
	chunkStat
	prompts   [][]int
	seed      uint64 // of request 0; request r carries seed+r
	responses []serve.Response
	before    serve.MetricsSnapshot
	after     serve.MetricsSnapshot
	inflight  []float64
}

// chunkPrompts are the prompts chunk i cycles through: the pool, or
// fresh ones no earlier chunk has used.
func (s serveSpec) chunkPrompts(st *serveState, seed uint64, i, n int) [][]int {
	if s.pool > 0 {
		return st.pool
	}
	return randomPrompts(prng.New(seed).Split(uint64(1+i)), st.vocab, n)
}

// chunkSeed spaces the request seeds of successive chunks apart, so no
// request of a run repeats an earlier one's fault site.
func chunkSeed(seed uint64, i, n int) uint64 { return seed<<24 + uint64(i*n) }

// runChunk sends the first n requests of chunk i, whose full size is
// size requests.
func (s serveSpec) runChunk(st *serveState, seed uint64, i, n, size int, tr *tracer) (serveChunk, error) {
	ck := serveChunk{prompts: s.chunkPrompts(st, seed, i, size), seed: chunkSeed(seed, i, size)}
	en := st.plain
	if tr != nil {
		ck.traced = true
		en = st.traced
	}
	var (
		stopPoll = make(chan struct{})
		polled   sync.WaitGroup
	)
	if tr != nil {
		// Batch rows in use, sampled every 10 ms.
		polled.Add(1)
		go func() {
			defer polled.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					ck.inflight = append(ck.inflight, float64(en.e.Metrics().Snapshot().InFlight))
				}
			}
		}()
	}
	ck.before = en.e.Metrics().Snapshot()
	start := time.Now()
	stats, err := loadgen.Run(context.Background(), &timedTarget{inner: en.tgt, maxNew: s.maxNewFor, tr: tr}, loadgen.Config{
		Streams:   s.clients,
		Requests:  n,
		Prompts:   ck.prompts,
		Baselines: st.baselines,
		Seed:      ck.seed,
	})
	ck.wall = time.Since(start)
	close(stopPoll)
	polled.Wait()
	if err != nil {
		return ck, err
	}
	ck.after = en.e.Metrics().Snapshot()
	ck.responses = stats.Responses
	ck.ops = n
	lat := make([]time.Duration, 0, n)
	for _, r := range stats.Responses {
		ck.tokens += len(r.Tokens)
		lat = append(lat, r.Latency)
	}
	// The engine's own exact TTFT and inter-token means over the chunk,
	// and latency as the benchmark's clients timed it.
	ck.timing = values{
		"ttft_mean_ms":   1e3 * ratio(ck.after.TTFTSum-ck.before.TTFTSum, float64(ck.after.TTFTCount-ck.before.TTFTCount)),
		"itl_mean_ms":    1e3 * ratio(ck.after.ITSum-ck.before.ITSum, float64(ck.after.ITCount-ck.before.ITCount)),
		"latency_p50_ms": ms(percentile(lat, 0.50)),
		"latency_p90_ms": ms(percentile(lat, 0.90)),
	}
	return ck, nil
}

func (s serveSpec) run(cfg config, tr *tracer) (*report, error) {
	chunk := cfg.scaled(s.chunk)
	warm := min(cfg.scaled(s.warm), chunk)
	rep := &report{chunkOps: chunk, e2e: values{}, layer: values{}}

	// Set-up: model, prompt pool with its clean baselines, the running
	// engine (and server), and a warm-up pass over the first requests.
	st, setupS, err := medianSetup(cfg.setups, func() (*serveState, error) {
		m, vocab, err := benchModel()
		if err != nil {
			return nil, err
		}
		st := &serveState{m: m, vocab: vocab}
		if s.pool > 0 {
			st.pool = randomPrompts(prng.New(cfg.seed), vocab, s.pool)
			for _, p := range st.pool {
				st.baselines = append(st.baselines, gen.Generate(m, p, gen.Defaults(s.maxNew)).Tokens)
			}
		}
		if st.plain, err = s.startEngine(m, vocab, cfg.seed, nil); err != nil {
			return nil, err
		}
		if tr != nil {
			if st.traced, err = s.startEngine(m, vocab, cfg.seed, tr.recorder("serve")); err != nil {
				return nil, err
			}
		}
		ck, err := s.runChunk(st, cfg.seed, 0, warm, chunk, nil)
		st.warm = ck.responses
		return st, err
	}, func(st *serveState) { _ = st.stop() }) // a drain error of a discarded set-up changes nothing
	if err != nil {
		return nil, err
	}
	defer st.stop()
	rep.e2e["setup_s"] = setupS

	var chunks []serveChunk
	if rep.wall, err = timed(cfg, func(i int, traced bool) error {
		ck, err := s.runChunk(st, cfg.seed, i, chunk, chunk, tr.when(traced))
		chunks = append(chunks, ck)
		return err
	}); err != nil {
		return nil, err
	}

	s.check(rep, st, chunks, warm)

	var stats []chunkStat
	for _, ck := range chunks {
		stats = append(stats, ck.chunkStat)
	}
	rep.settle(stats, tr, servingTimings...)
	s.layers(rep.layer, chunks, tr)
	if s.inject {
		injectCounts(rep, chunks[0].responses)
	}
	return rep, nil
}

// layers fills the serve metrics: the engine's status counts and the
// clients' latencies over the timed chunks, and from the spans of the
// traced chunks where a request's time went.
func (s serveSpec) layers(l values, chunks []serveChunk, tr *tracer) {
	var (
		srvS, srvN float64
		lat        []time.Duration
		requests   [5]float64
		inflight   []float64
	)
	for _, ck := range chunks {
		for i := range requests {
			requests[i] += float64(ck.after.Requests[i] - ck.before.Requests[i])
		}
		inflight = append(inflight, ck.inflight...)
		if ck.traced {
			continue
		}
		srvS += ck.after.LatSum - ck.before.LatSum
		srvN += float64(ck.after.LatCount - ck.before.LatCount)
		for _, r := range ck.responses {
			lat = append(lat, r.Latency)
		}
	}
	l["serve.latency_p99_ms"] = ms(percentile(lat, 0.99))
	l["serve.requests_ok"] = requests[reqOK]
	l["serve.requests_invalid"] = requests[reqInvalid]
	l["serve.requests_deadline"] = requests[reqDeadline]
	l["serve.requests_canceled"] = requests[reqCanceled]
	l["serve.requests_draining"] = requests[reqDraining]
	l["serve.inflight_mean"] = mean(inflight)
	if s.overHTTP {
		// What the wire adds: the clients' mean latency minus the
		// engine's own.
		l["serve.wire_us_per_req"] = us(meanDuration(lat)) - 1e6*ratio(srvS, srvN)
	}
	if tr == nil {
		return
	}
	all := tr.snapshot()
	// The engine records a queue_wait span only for a request that
	// waited; the others waited 0.
	wait := durations(all, "queue_wait")
	for n := len(durations(all, "request")); len(wait) < n; {
		wait = append(wait, 0)
	}
	first := durations(all, "first_token")
	l["serve.queue_wait_ms_p50"] = ms(percentile(wait, 0.50))
	l["serve.queue_wait_ms_p99"] = ms(percentile(wait, 0.99))
	l["serve.first_token_ms_p50"] = ms(percentile(first, 0.50))
	l["serve.first_token_ms_p99"] = ms(percentile(first, 0.99))
	l["serve.prefill_ms_mean"] = ms(meanDuration(first) - meanDuration(wait))
	l["serve.decode_ms_p50"] = ms(percentile(durations(all, "decode"), 0.50))
}

// injectCounts fills the exact counts of one chunk of requests served
// under injection — chunk 0: the same requests with the same seeds on
// every run of a benchmark seed.
func injectCounts(rep *report, responses []serve.Response) {
	var (
		l                          = rep.layer
		surfaces, outcomes         = map[string]int{}, map[string]int{}
		fired, flagged, fp         int
		detected, sdc, sdcDetected int
	)
	for _, r := range responses {
		surfaces[r.Surface]++
		outcomes[r.Outcome]++
		flagged += r.Detected
		switch {
		case r.Fired && r.Detected > 0:
			detected++
		case r.Detected > 0:
			fp++
		}
		if r.Fired {
			fired++
		}
		if r.Outcome != "" && r.Outcome != outcome.Masked.String() {
			sdc++
			if r.Detected > 0 {
				sdcDetected++
			}
		}
	}
	n := float64(len(responses))
	l["faults.fired"] = float64(fired)
	for _, sf := range faults.Surfaces {
		l["faults.surface_"+sf.String()] = float64(surfaces[sf.String()])
	}
	l["outcome.masked"] = float64(outcomes[outcome.Masked.String()])
	l["outcome.sdc_subtle"] = float64(outcomes[outcome.SDCSubtle.String()])
	l["outcome.sdc_distorted"] = float64(outcomes[outcome.SDCDistorted.String()])
	l["abft.flagged"] = float64(flagged)
	l["abft.detected"] = float64(detected)
	l["abft.missed"] = float64(fired - detected)
	rep.e2e["sdc_recall"] = ratio(float64(sdcDetected), float64(sdc))
	rep.e2e["abft_false_positive_share"] = ratio(float64(fp), n)
	// Weight-resident strikes leave the batch for the serial
	// copy-on-write path.
	l["serve.serial_path_share"] = ratio(float64(surfaces[faults.SurfaceNorm.String()]+surfaces[faults.SurfaceEmbed.String()]), n)
}

// check verifies the served outputs: every request answered without
// error, every 25th one's tokens equal to gen.Generate on the bare model
// (under injection: whenever the fault did not fire or was masked), the
// engine's own count of ok requests equal to the clients', and the
// warm-up pass reproduced by chunk 0.
func (s serveSpec) check(rep *report, st *serveState, chunks []serveChunk, warm int) {
	for i, ck := range chunks {
		var bad, wrong int
		for r, resp := range ck.responses {
			if resp.Err != nil {
				bad++
				continue
			}
			if r%25 != 0 {
				continue
			}
			if s.inject && resp.Fired && resp.Outcome != outcome.Masked.String() {
				continue
			}
			var want []int
			if s.pool > 0 {
				want = st.baselines[r%len(st.baselines)]
			} else {
				want = gen.Generate(st.m, ck.prompts[r%len(ck.prompts)], gen.Defaults(s.maxNewFor(ck.seed+uint64(r)))).Tokens
			}
			if !reflect.DeepEqual(resp.Tokens, want) {
				wrong++
			}
		}
		if bad > 0 {
			rep.fail(bad, "chunk %d: %d requests failed or were refused", i, bad)
		}
		if wrong > 0 {
			rep.fail(wrong, "chunk %d: %d checked requests differ from gen.Generate on the bare model", i, wrong)
		}
		if ok := int(ck.after.Requests[reqOK] - ck.before.Requests[reqOK]); ok != ck.ops-bad {
			rep.fail(1, "chunk %d: engine counted %d ok requests, clients %d", i, ok, ck.ops-bad)
		}
	}
	var drift int
	for r, w := range st.warm {
		got := chunks[0].responses[r]
		if !reflect.DeepEqual(w.Tokens, got.Tokens) || w.Outcome != got.Outcome || w.Fired != got.Fired || w.Detected != got.Detected {
			drift++
		}
	}
	if drift > 0 {
		rep.fail(drift, "%d warm-up requests differ from the timed pass", drift)
	}
	if len(st.warm) != warm {
		rep.fail(1, "warm-up pass answered %d of %d requests", len(st.warm), warm)
	}
}
