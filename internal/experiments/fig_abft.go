package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/abft"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/report"
	"repro/internal/tasks"
)

func init() {
	register(Experiment{
		ID:       "fig_abft",
		Title:    "ABFT extension: checksum-GEMM detection recall by bit position and runtime overhead",
		PaperRef: "§6 related work (ReaLM-style ABFT over the §3 fault models)",
		Run:      runFigABFT,
	})
}

// runFigABFT measures the online checksum detector against every fault
// model on the dense and MoE profiles: per-bit detection recall (the
// ReaLM-shaped result — exponent-bit corruptions are caught, low-order
// mantissa flips fall below the kernel noise floor and escape), noise
// false positives, and the wall-clock overhead of checking every layer.
func runFigABFT(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig_abft", "ABFT detection recall and overhead")
	dense, moe, err := moeModels(cfg)
	if err != nil {
		return nil, err
	}
	suite := tasks.NewSelfRefSuite("abft", cfg.Seed, cfg.Instances, 24, 10, []metrics.Kind{metrics.KindBLEU})

	var b strings.Builder
	t := report.NewTable("Profile", "Fault", "Fired", "Recall%", "ExpRecall%", "MantRecall%", "FalsePos", "Corrected")
	dt := numerics.BF16
	for _, prof := range []struct {
		name string
		m    *model.Model
	}{{"dense", dense}, {"moe", moe}} {
		for _, fm := range faults.Models {
			res, err := cfg.campaign(ctx, fmt.Sprintf("abft %s/%v", prof.name, fm), core.Campaign{
				Model: prof.m, Suite: suite, Fault: fm,
				Trials:  cfg.Trials,
				Seed:    cfg.Seed ^ hash2("abft", prof.name, fm.String()),
				Workers: cfg.Workers,
				ABFT:    &core.ABFTConfig{},
			})
			if err != nil {
				return nil, err
			}
			s := res.Detection()
			expFired, expDet, mantFired, mantDet := 0, 0, 0, 0
			byBit := res.DetectionByBit()
			for _, br := range byBit {
				switch numerics.ClassifyBit(dt, br.Bit) {
				case numerics.ExponentBit:
					expFired += br.Fired
					expDet += br.Detected
				case numerics.MantissaBit:
					mantFired += br.Fired
					mantDet += br.Detected
				}
			}
			t.Row(prof.name, fm.String(), s.Fired, 100*s.Recall(),
				100*frac(expDet, expFired), 100*frac(mantDet, mantFired),
				s.FalsePositives, s.Corrected)
			key := prof.name + "." + fm.String()
			o.set(key+".recall", s.Recall())
			o.set(key+".exp_recall", frac(expDet, expFired))
			o.set(key+".false_positives", float64(s.FalsePositives))

			fmt.Fprintf(&b, "%s / %v — detection recall by highest flipped bit:\n", prof.name, fm)
			for _, br := range byBit {
				r := frac(br.Detected, br.Fired)
				fmt.Fprintf(&b, "  bit %2d (%-8s) %3d/%3d %6.1f%% %s\n",
					br.Bit, numerics.ClassifyBit(dt, br.Bit), br.Detected, br.Fired,
					100*r, strings.Repeat("█", int(r*40)))
			}
			b.WriteByte('\n')
		}
	}

	// Wall-clock overhead of checking every linear layer, measured on
	// fault-free generation over the suite (best case for the adversary:
	// no faults, so the entire cost is the checksum arithmetic).
	base, checked, err := abftOverhead(dense, suite)
	if err != nil {
		return nil, err
	}
	overhead := 0.0
	if base > 0 {
		overhead = (checked - base) / base
	}
	o.set("overhead_frac", overhead)

	o.Text = t.String() + "\n" + b.String() +
		fmt.Sprintf("All-layer checking overhead: %.1f%% (unchecked %.0fms vs checked %.0fms)\n\n",
			100*overhead, 1000*base, 1000*checked) +
		"Expected shape (ReaLM): exponent-bit computational faults are detected\n" +
		"near-100% — the flip multiplies the struck value by 2^(2^i), towering\n" +
		"over the float32 noise floor — while low-order mantissa flips perturb\n" +
		"the checksum by less than kernel round-off and escape (they are the\n" +
		"Masked faults of Figure 9, so missing them is free). Memory faults on\n" +
		"small-magnitude weights sit in between.\n"
	return o, nil
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// abftOverhead times fault-free generation over the suite with no checker
// and with every layer checksummed, interleaving repetitions so clock
// drift hits both arms equally.
func abftOverhead(m *model.Model, suite *tasks.Suite) (base, checked float64, err error) {
	run := func(ch *abft.Checker) error {
		for _, inst := range suite.Instances {
			st := m.NewState()
			if ch != nil {
				st.Checker = ch
			}
			gen.GenerateFrom(m, st, st.Prefill(inst.Prompt), gen.Defaults(inst.MaxNew))
		}
		return nil
	}
	p := abft.Protection{AllLayers: true}
	ch, err := p.Checker(p.Table(m))
	if err != nil {
		return 0, 0, err
	}
	// One untimed warmup pair, then interleaved timed reps.
	run(nil)
	run(ch)
	const reps = 5
	for i := 0; i < reps; i++ {
		t0 := time.Now() //llmfi:allow determinism overhead benchmark: the measured quantity IS wall time
		run(nil)
		t1 := time.Now() //llmfi:allow determinism overhead benchmark: the measured quantity IS wall time
		run(ch)
		base += t1.Sub(t0).Seconds()
		checked += time.Since(t1).Seconds() //llmfi:allow determinism overhead benchmark: the measured quantity IS wall time
	}
	return base / reps, checked / reps, nil
}
