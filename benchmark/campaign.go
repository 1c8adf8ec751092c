package main

import (
	"context"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/token"
	"repro/internal/trace"
)

// benchModel is the one model every workload uses: the standard dense
// shape (d=64, 4 blocks, ff=176) in BF16 with fixed weights. The
// benchmark seed never reaches it.
func benchModel() (*model.Model, *token.Vocab, error) {
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("bench", vocab.Size(), numerics.BF16)
	m, err := model.Build(model.Spec{Config: cfg, Family: model.QwenS, Seed: 8})
	return m, vocab, err
}

// campaignSpec is one campaign workload. Its trials run on one worker,
// so the second core is left to the collector.
type campaignSpec struct {
	fault faults.Model
	// batch is the continuous-batching width (0 = serial decode), and so
	// how many trials are in flight at once.
	batch int
	abft  *core.ABFTConfig
	// chunk is the trial count of one timed campaign, warm that of the
	// warm-up pass of every set-up.
	chunk, warm int
	// propTrace makes traced chunks also sample propagation records.
	propTrace bool
}

var (
	// Chunks are sized to take a little over a second on the reference
	// box, so that eight or more fit a 12 s window (see fastQuartile).
	// ~450 trials/s: 94% of busy time in decode.
	campaignSerial = campaignSpec{fault: faults.Comp2Bit, chunk: 480, warm: 64, propTrace: true}
	// The same campaign through model.Batch and the admit/step/retire scheduler.
	campaignBatched = campaignSpec{fault: faults.Comp2Bit, batch: 16, chunk: 480, warm: 64}
	// ~55 trials/s: weights written, every trial re-prefills through the
	// checked GEMM.
	campaignMemABFT = campaignSpec{
		fault: faults.Mem2Bit,
		abft:  &core.ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true},
		chunk: 80, warm: 16,
	}
)

// build makes the campaign: 4 instances of 120-token prompts, 12 new
// tokens each, suite and campaign seeded by the benchmark seed.
func (s campaignSpec) build(seed uint64, trials int) (core.Campaign, error) {
	m, _, err := benchModel()
	if err != nil {
		return core.Campaign{}, err
	}
	suite := tasks.NewSelfRefSuite("bench", seed, 4, 120, 12, []metrics.Kind{metrics.KindBLEU})
	opts := []core.Option{core.WithWorkers(1)}
	if s.batch > 1 {
		opts = append(opts, core.WithDecodeBatch(s.batch))
	}
	if s.abft != nil {
		opts = append(opts, core.WithABFT(*s.abft))
	}
	return core.New(m, suite, s.fault, trials, seed, opts...), nil
}

func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// diffTrials counts the positions at which two trial lists differ.
func diffTrials(a, b []core.Trial) int {
	n := 0
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			n++
		}
	}
	return n
}

// generated counts the tokens the trials generated: a trial's Steps also
// count the positions of its prompt.
func generated(res *core.Result) int {
	n := 0
	for _, t := range res.Trials {
		n += t.Steps - len(res.Campaign.Suite.Instances[t.Instance].Prompt)
	}
	return n
}

// campaignChunk is one timed campaign and what the runner's public
// instruments said about it.
type campaignChunk struct {
	chunkStat
	res      *core.Result
	tel      core.TelemetrySnapshot
	baseline time.Duration // start to BaselineReady on Runner.Stream
	alloc    uint64
	gcPause  time.Duration
	records  int
}

// runCampaignChunk runs the campaign once through Runner.Stream, as the
// CLI does. With a tracer it turns the runner's span observer on and
// records a bench.run span around the call, a trial span per trial and
// a span per phase.
func runCampaignChunk(c core.Campaign, tr *tracer, propTrace bool) (campaignChunk, error) {
	var ck campaignChunk
	tel := core.NewTelemetry()
	opts := []core.RunnerOption{core.WithTelemetry(tel)}
	var root obs.SpanContext
	if tr != nil {
		ck.traced = true
		root = tr.start()
		opts = append(opts, core.WithSpanObserver(func(index int, spans []trace.Span, busy time.Duration) {
			recordTrial(tr, root, index, spans, busy)
		}))
		if propTrace {
			opts = append(opts, core.WithTrace(16, func(trace.Record) error { ck.records++; return nil }))
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for ev := range core.NewRunner(c, opts...).Stream(context.Background()) {
		switch e := ev.(type) {
		case core.BaselineReady:
			ck.baseline = time.Since(start)
		case core.CampaignDone:
			if e.Err != nil {
				return ck, e.Err
			}
			ck.res = e.Result
		}
	}
	ck.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	if tr != nil {
		tr.end(root, "bench.run", start, ck.wall, obs.Int("trials", int64(c.Trials)))
	}
	ck.ops = c.Trials
	ck.tokens = generated(ck.res)
	ck.tel = tel.Snapshot()
	ck.alloc = after.TotalAlloc - before.TotalAlloc
	ck.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return ck, nil
}

// recordTrial turns one trial's phase timings into spans: the phases
// that follow one another become children of the trial span, so the
// trial's self time is what no phase covers. The check and mitigation
// phases run inside prefill and decode; they ride as attributes.
func recordTrial(tr *tracer, root obs.SpanContext, index int, spans []trace.Span, busy time.Duration) {
	op := obs.Int("op", int64(index))
	attrs := []obs.Attr{op}
	var phases []trace.Span
	for _, ps := range spans {
		switch ps.Phase {
		case trace.PhasePrefill, trace.PhaseDecode, trace.PhaseClassify:
			phases = append(phases, ps)
		case trace.PhaseABFTCheck, trace.PhaseMitigate:
			attrs = append(attrs, obs.Num(string(ps.Phase)+"_s", ps.Seconds))
		}
	}
	at := time.Now().Add(-busy)
	trial := tr.child(root, "trial", at, busy, attrs...)
	for _, ps := range phases {
		d := time.Duration(ps.Seconds * float64(time.Second))
		tr.child(trial, string(ps.Phase), at, d, op)
		at = at.Add(d)
	}
}

// phase reads one phase histogram's total out of a telemetry snapshot.
func phase(s core.TelemetrySnapshot, p trace.Phase) (seconds float64, count int64) {
	for _, ps := range s.Phases {
		if ps.Phase == string(p) {
			return ps.SumSeconds, ps.Count
		}
	}
	return 0, 0
}

func busySeconds(s core.TelemetrySnapshot) float64 {
	var busy float64
	for _, w := range s.Workers {
		busy += w.BusySeconds
	}
	return busy
}

func (s campaignSpec) run(cfg config, tr *tracer) (*report, error) {
	ctx := context.Background()
	chunk := cfg.scaled(s.chunk)
	warm := min(cfg.scaled(s.warm), chunk)
	ref := min(64, chunk)
	rep := &report{chunkOps: chunk, e2e: values{}, layer: values{}}

	// Set-up: model, suite, campaign, and a warm-up pass over the first
	// trials through the configured path.
	type state struct {
		c    core.Campaign
		warm *core.Result
	}
	st, setupS, err := medianSetup(cfg.setups, func() (state, error) {
		c, err := s.build(cfg.seed, chunk)
		if err != nil {
			return state{}, err
		}
		res, err := core.NewRunner(c, core.WithOnly(firstN(warm))).Run(ctx)
		return state{c, res}, err
	}, func(state) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS

	var chunks []campaignChunk
	if rep.wall, err = timed(cfg, func(i int, traced bool) error {
		ck, err := runCampaignChunk(st.c, tr.when(traced), s.propTrace)
		chunks = append(chunks, ck)
		return err
	}); err != nil {
		return nil, err
	}

	// Output checks. The reference is the same campaign decoded serially
	// and restricted to its first trials; every timed campaign must
	// reproduce it, and each other, bit for bit.
	serial := st.c
	serial.BatchDecode = 0
	refRes, err := core.NewRunner(serial, core.WithOnly(firstN(ref))).Run(ctx)
	if err != nil {
		return nil, err
	}
	first := chunks[0].res.Trials
	for i, ck := range chunks {
		trials := ck.res.Trials
		tally := ck.res.Tally()
		if len(trials) != chunk || tally.Masked+tally.Subtle+tally.Distorted != chunk {
			rep.fail(chunk, "chunk %d: %d trials, tally %+v, want %d", i, len(trials), tally, chunk)
			continue
		}
		if n := diffTrials(trials[:ref], refRes.Trials[:ref]); n > 0 {
			rep.fail(n, "chunk %d: %d of the first %d trials differ from the serial reference", i, n, ref)
		}
		if n := diffTrials(trials, first); n > 0 {
			rep.fail(n, "chunk %d: %d trials differ from chunk 0", i, n)
		}
	}
	if n := diffTrials(st.warm.Trials[:warm], first[:warm]); n > 0 {
		rep.fail(n, "%d warm-up trials differ from the timed pass", n)
	}

	var stats []chunkStat
	for _, ck := range chunks {
		stats = append(stats, ck.chunkStat)
	}
	rep.settle(stats, tr)

	s.layers(rep, chunks, tr)
	if cfg.traced && s.batch > 1 {
		// The same campaign decoded serially, in the same process: the
		// batched speed-up by construction, and one more golden check.
		serial.Trials = chunk
		ck, err := runCampaignChunk(serial, nil, false)
		if err != nil {
			return nil, err
		}
		if n := diffTrials(ck.res.Trials, first); n > 0 {
			rep.fail(n, "%d batched trials differ from the serial campaign", n)
		}
		rep.layer["core.batch_speedup_vs_serial"] = rep.e2e["ops_per_s"] / (float64(ck.ops) / ck.wall.Seconds())
	}
	return rep, nil
}

// layers fills the core, abft, mitigate, faults and outcome metrics from
// the telemetry of all timed chunks; the exact counts come from chunk 0,
// which every run of a seed executes identically.
func (s campaignSpec) layers(rep *report, chunks []campaignChunk, tr *tracer) {
	var (
		sum                                           = map[trace.Phase]float64{}
		busy, wall, trials, steps, baseline           float64
		alloc, gcPause, checks, flagged, fired, bRows float64
		bSteps                                        float64
		records                                       int
	)
	for _, ck := range chunks {
		for _, p := range trace.Phases {
			sec, _ := phase(ck.tel, p)
			sum[p] += sec
		}
		busy += busySeconds(ck.tel)
		wall += ck.wall.Seconds()
		trials += float64(ck.ops)
		steps += float64(ck.tokens)
		baseline += ck.baseline.Seconds()
		alloc += float64(ck.alloc)
		gcPause += ck.gcPause.Seconds()
		checks += float64(ck.tel.AbftChecks)
		flagged += float64(ck.tel.AbftFlagged)
		fired += float64(ck.tel.Fired)
		bRows += float64(ck.tel.DecodeBatchRows)
		bSteps += float64(ck.tel.DecodeBatchSteps)
		records += ck.records
	}
	l := rep.layer
	l["core.prefill_share"] = ratio(sum[trace.PhasePrefill], busy)
	l["core.decode_share"] = ratio(sum[trace.PhaseDecode], busy)
	l["core.classify_share"] = ratio(sum[trace.PhaseClassify], busy)
	l["core.decode_token_us"] = 1e6 * ratio(sum[trace.PhaseDecode], steps)
	l["core.worker_utilization"] = ratio(busy, wall)
	l["core.batch_occupancy"] = ratio(bRows, bSteps)
	l["core.fired_share"] = ratio(fired, trials)
	l["core.baseline_s"] = ratio(baseline, float64(len(chunks)))
	l["core.alloc_kb_per_trial"] = ratio(alloc/1024, trials)
	l["core.gc_pause_ms"] = 1e3 * ratio(gcPause, wall)
	l["abft.checks_per_op"] = ratio(checks, trials)
	l["abft.check_us_per_op"] = 1e6 * ratio(sum[trace.PhaseABFTCheck], trials)
	l["abft.check_share"] = ratio(sum[trace.PhaseABFTCheck], busy)
	l["mitigate.share"] = ratio(sum[trace.PhaseMitigate], busy)
	l["mitigate.us_per_flag"] = 1e6 * ratio(sum[trace.PhaseMitigate], flagged)
	l["trace.records"] = float64(records)
	if tr != nil {
		// Self time from the spans of the traced chunks: what no phase of
		// a trial covers, and what no trial of a run covers.
		st := selfTimes(tr.snapshot())
		l["core.other_share"] = ratio(st["trial"].self, st["trial"].total)
		l["core.collector_idle_share"] = ratio(st["bench.run"].self, st["bench.run"].total)
	}

	res := chunks[0].res
	outcomeCounts(l, res)
	if s.abft != nil {
		var sdc, sdcDetected int
		for _, t := range res.Trials {
			if t.Outcome.Class.IsSDC() {
				sdc++
				if t.Detection != nil && t.Detection.AtSite {
					sdcDetected++
				}
			}
		}
		d := res.Detection()
		l["abft.flagged"] = float64(d.Flagged)
		l["abft.detected"] = float64(d.Detected)
		l["abft.missed"] = float64(d.Missed)
		l["abft.cascaded"] = float64(d.Cascaded)
		l["abft.corrected"] = float64(d.Corrected)
		l["abft.skipped"] = float64(d.Skipped)
		rep.e2e["sdc_recall"] = ratio(float64(sdcDetected), float64(sdc))
		rep.e2e["abft_false_positive_share"] = ratio(float64(d.FalsePositives), float64(len(res.Trials)))
	}
}

// outcomeCounts fills the exact counts of one campaign Result: faults
// fired (all on the linear surface) and the outcome tally.
func outcomeCounts(l values, res *core.Result) {
	tally := res.Tally()
	l["outcome.masked"] = float64(tally.Masked)
	l["outcome.sdc_subtle"] = float64(tally.Subtle)
	l["outcome.sdc_distorted"] = float64(tally.Distorted)
	l["faults.surface_linear"] = float64(len(res.Trials))
	for _, t := range res.Trials {
		if t.Fired {
			l["faults.fired"]++
		}
	}
}
