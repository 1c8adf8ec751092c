package core

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/tasks"
)

// benchCase builds the benchmark workload: a long-prompt generative
// computational-fault campaign — the configuration the prefix-cache
// engine accelerates.
func benchCase(seedPath bool) Campaign {
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("bench", vocab.Size(), numerics.BF16)
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 8})
	suite := tasks.NewSelfRefSuite("bench-prefix", 4, 2, 120, 12, []metrics.Kind{metrics.KindBLEU})
	c := Campaign{Model: m, Suite: suite, Fault: faults.Comp2Bit, Trials: 32, Seed: 9}
	if seedPath {
		withSeedPath()(&c)
	}
	return c
}

// benchCampaign measures blocking-Run throughput. seedPath pins the run
// to the seed execution path (sequential prefill, deep clones, full
// re-prefill per trial) so the two benchmarks bracket the engine's
// speedup.
func benchCampaign(b *testing.B, seedPath bool) {
	c := benchCase(seedPath)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trials) != c.Trials {
			b.Fatal("short campaign")
		}
	}
	b.ReportMetric(float64(c.Trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkCampaignSeedPath(b *testing.B)     { benchCampaign(b, true) }
func BenchmarkCampaignPrefixEngine(b *testing.B) { benchCampaign(b, false) }

// BenchmarkCampaignStreamRunner measures the full streaming runtime —
// event emission, telemetry accounting, per-trial Progress — on the
// same workload, so the streaming overhead over blocking Run is
// directly visible (acceptance: <= 5%).
func BenchmarkCampaignStreamRunner(b *testing.B) {
	c := benchCase(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var final CampaignDone
		for ev := range NewRunner(c).Stream(context.Background()) {
			if e, ok := ev.(CampaignDone); ok {
				final = e
			}
		}
		if final.Err != nil {
			b.Fatal(final.Err)
		}
		if len(final.Result.Trials) != c.Trials {
			b.Fatal("short campaign")
		}
	}
	b.ReportMetric(float64(c.Trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// TestEmitABFTBenchJSON measures the checksum detector's campaign cost —
// ABFT off vs site-only checking vs every-layer checking — plus its
// detection quality on the same workload, written to BENCH_3.json. Gated
// behind BENCH3_JSON_OUT so it only runs from `make bench`. Acceptance:
// all-layer overhead <= 25% of the unchecked throughput.
func TestEmitABFTBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH3_JSON_OUT")
	if out == "" {
		t.Skip("set BENCH3_JSON_OUT to emit the ABFT benchmark JSON")
	}

	run := func(abftCfg *ABFTConfig) float64 {
		c := benchCase(false)
		c.ABFT = abftCfg
		start := time.Now()
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return float64(c.Trials) / time.Since(start).Seconds()
	}

	run(nil) // warmup

	// Interleave repetitions of the three arms and keep each arm's best
	// throughput, so allocator growth and clock drift cannot masquerade
	// as checking overhead on this sub-second workload.
	var off, site, all float64
	for rep := 0; rep < 4; rep++ {
		off = math.Max(off, run(nil))
		site = math.Max(site, run(&ABFTConfig{}))
		all = math.Max(all, run(&ABFTConfig{AllLayers: true}))
	}

	// Detection quality on the same workload at a larger trial budget
	// (the 32-trial throughput arms would put only ~20 exponent-bit
	// faults under test).
	recallCase := benchCase(false)
	recallCase.Trials = 160
	recallCase.ABFT = &ABFTConfig{}
	siteRes, err := recallCase.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	det := siteRes.Detection()
	expFired, expDet := 0, 0
	dt := benchCase(false).Model.Cfg.DType
	for _, br := range siteRes.DetectionByBit() {
		if numerics.ClassifyBit(dt, br.Bit) == numerics.ExponentBit {
			expFired += br.Fired
			expDet += br.Detected
		}
	}
	expRecall := 0.0
	if expFired > 0 {
		expRecall = float64(expDet) / float64(expFired)
	}

	report := struct {
		Workload          string  `json:"workload"`
		Trials            int     `json:"trials"`
		Off               float64 `json:"abft_off_trials_per_sec"`
		SiteOnly          float64 `json:"abft_site_trials_per_sec"`
		AllLayers         float64 `json:"abft_all_layers_trials_per_sec"`
		SiteOverhead      float64 `json:"site_overhead_frac"`
		AllLayersOverhead float64 `json:"all_layers_overhead_frac"`
		Recall            float64 `json:"detection_recall"`
		ExponentRecall    float64 `json:"exponent_bit_recall"`
		FalsePositives    int     `json:"false_positives"`
	}{
		Workload:          "selfref generative, 120-token prompts, comp-2bit",
		Trials:            recallCase.Trials,
		Off:               off,
		SiteOnly:          site,
		AllLayers:         all,
		SiteOverhead:      (off - site) / off,
		AllLayersOverhead: (off - all) / off,
		Recall:            det.Recall(),
		ExponentRecall:    expRecall,
		FalsePositives:    det.FalsePositives,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("off=%.2f site=%.2f all=%.2f trials/s (all-layer overhead %.1f%%), recall=%.3f exp=%.3f fp=%d",
		off, site, all, 100*report.AllLayersOverhead, det.Recall(), expRecall, det.FalsePositives)
	if report.AllLayersOverhead > 0.25 {
		t.Errorf("all-layer checking overhead %.1f%% exceeds the 25%% budget", 100*report.AllLayersOverhead)
	}
}
