package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/pretrained"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/tasks"
)

func init() {
	register(Experiment{
		ID:       "fig_serving",
		Title:    "Serving extension: latency and SLO violations under live fault injection, ABFT off/site/all",
		PaperRef: "§5 end-to-end perspective (offline trial contract carried into a live service)",
		Run:      runFigServing,
	})
}

// runFigServing drives concurrent request streams at the live serving
// engine while injecting one fault per request across all five surfaces
// (linear, KV cache, norm gains, embedding rows, attention activations),
// and measures what an operator would: p50/p99 request latency, the
// SLO-violation rate (SLO = 2x the clean pass's p99), outcome mix, and
// ABFT detections under three protection arms — off, site-scoped, and
// all-layers. The headline is the coverage boundary: ABFT checksums the
// linear GEMMs, so KV/norm/embed/attention corruptions pass every check
// while still producing SDCs.
func runFigServing(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig_serving", "Serving under faults: latency, SLO violations, and detection")

	vocab := tasks.GeneralVocab()
	m, err := pretrained.ProfileModel("LlamaS", cfg.Seed+7000) // +1 for LlamaS: seed cfg.Seed+7001
	if err != nil {
		return nil, err
	}
	const (
		streams   = 8
		maxNew    = 12
		promptLen = 16
	)
	requests := cfg.Trials
	suite := tasks.NewSelfRefSuite("serving", cfg.Seed, cfg.Instances, promptLen, maxNew, []metrics.Kind{metrics.KindBLEU})
	prompts := make([][]int, len(suite.Instances))
	baselines := make([][]int, len(suite.Instances))
	for i, inst := range suite.Instances {
		prompts[i] = inst.Prompt
		baselines[i] = gen.Generate(m, inst.Prompt, gen.Defaults(maxNew)).Tokens
	}

	type armResult struct {
		st       *loadgen.Stats
		detected int64
	}
	runArm := func(inject *serve.InjectConfig, slo time.Duration) (*armResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e, err := serve.NewEngine(serve.Config{
			Model: m, Vocab: vocab, Width: streams, SLO: slo, Inject: inject,
		})
		if err != nil {
			return nil, err
		}
		runCtx, cancel := context.WithCancel(ctx)
		runDone := make(chan error, 1)
		go func() { runDone <- e.Run(runCtx) }()
		// Every arm uses the same load seed: identical requests and, in
		// the fault arms, identical per-request fault sites, so latency
		// and detection differences are attributable to the arm alone.
		st, lerr := loadgen.Run(ctx, e, loadgen.Config{
			Streams: streams, Requests: requests, Prompts: prompts,
			Baselines: baselines, MaxNew: maxNew,
			Seed: cfg.Seed ^ hash2("serving", "load"), SLO: slo,
		})
		cancel()
		if rerr := <-runDone; lerr == nil {
			lerr = rerr
		}
		if lerr != nil {
			return nil, lerr
		}
		return &armResult{st: st, detected: e.Metrics().Snapshot().Detected}, nil
	}
	inject := func(abft *serve.ABFTConfig) *serve.InjectConfig {
		return &serve.InjectConfig{
			Fault:    faults.Comp1Bit,
			Surfaces: faults.Surfaces,
			Seed:     cfg.Seed + 7070,
			ABFT:     abft,
		}
	}

	// Warmup pass (cold allocator and page-in costs must not set the
	// objective), then a clean pass whose p99 defines the SLO.
	if _, err := runArm(nil, 0); err != nil {
		return nil, err
	}
	clean, err := runArm(nil, 0)
	if err != nil {
		return nil, err
	}
	slo := 2 * clean.st.P99

	arms := []struct {
		name string
		cfg  *serve.InjectConfig
	}{
		{"clean", nil},
		{"abft-off", inject(nil)},
		{"abft-site", inject(&serve.ABFTConfig{Policy: mitigate.PolicyDetect})},
		{"abft-all", inject(&serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true})},
	}
	t := report.NewTable("Arm", "OK", "Fired", "p50 ms", "p99 ms", "SLOviol%", "Masked%", "SDC%", "Detected")
	for _, a := range arms {
		r, err := runArm(a.cfg, slo)
		if err != nil {
			return nil, err
		}
		st := r.st
		masked := st.Outcomes["Masked"]
		sdc := st.Outcomes["SDC-subtle"] + st.Outcomes["SDC-distorted"]
		classified := masked + sdc
		t.Row(a.name, st.OK, st.Fired,
			float64(st.P50)/float64(time.Millisecond),
			float64(st.P99)/float64(time.Millisecond),
			100*float64(st.SLOViolations)/float64(requests),
			100*frac(masked, classified), 100*frac(sdc, classified),
			r.detected)
		key := a.name
		o.set(key+".p50_ms", float64(st.P50)/float64(time.Millisecond))
		o.set(key+".p99_ms", float64(st.P99)/float64(time.Millisecond))
		o.set(key+".slo_violation_rate", frac(st.SLOViolations, requests))
		if a.cfg != nil {
			o.set(key+".fired", float64(st.Fired))
			o.set(key+".sdc_rate", frac(sdc, classified))
			o.set(key+".detected", float64(r.detected))
		}
	}

	o.Text = t.String() + fmt.Sprintf(`
Serving %d requests over %d concurrent streams (SLO = 2x clean p99 = %.2fms).
Each campaign request carries one fault sampled uniformly over the five
surfaces: linear layers, KV cache, RMSNorm gains, embedding rows, and
attention activations. Expected shape: the site-scoped and all-layers
ABFT arms detect only linear-surface strikes — the checksum verifies
out = W*in for each GEMM, so corruption of the GEMM's *inputs* (KV
cache, attention activations) or of pre-GEMM state (norm gains,
embedding rows) passes every check while still producing SDCs. The
all-layers arm pays the largest latency premium for the same recall on
this fault mix, which is the serving-side cost/coverage trade-off.
`, requests, streams, float64(slo)/float64(time.Millisecond))
	return o, nil
}
