package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/report"
	"repro/internal/tasks"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:       "fig_propagation",
		Title:    "Propagation depth from traces: exponent vs mantissa bits, dense vs MoE",
		PaperRef: "Figs. 5-6 (propagation/cascade characterization), via the tracing layer",
		Run:      runFigPropagation,
	})
}

// runFigPropagation reproduces the paper's propagation-depth
// characterization from full campaign traces: every trial of a
// single-bit computational-fault campaign runs with a propagation probe
// (internal/trace) that diffs its layer activations against the clean
// baseline capture. The traces give, per highest-flipped-bit class,
// where the first divergence appears (it should be the injection site),
// how many downstream blocks the corruption cascades through, and what
// fraction of the post-site layers it saturates — exponent-bit flips
// should cascade through essentially the whole network while mantissa
// flips die inside the struck layer's numerical noise.
func runFigPropagation(ctx context.Context, cfg Config) (*Outcome, error) {
	cfg = cfg.withDefaults()
	o := newOutcome("fig_propagation", "Fault propagation depth from traces")
	dense, moe, err := moeModels(cfg)
	if err != nil {
		return nil, err
	}
	suite := tasks.NewSelfRefSuite("prop", cfg.Seed, cfg.Instances, 24, 10, []metrics.Kind{metrics.KindBLEU})
	dt := numerics.BF16
	tcfg := cfg
	tcfg.TraceEvery = 1 // every trial's record, still forwarded to cfg.TraceSink

	var b strings.Builder
	t := report.NewTable("Profile", "Bits", "Fired", "Diverged%", "AtSite%", "Depth", "Blast%", "SDC%")
	for _, prof := range []struct {
		name string
		m    *model.Model
	}{{"dense", dense}, {"moe", moe}} {
		run, err := tcfg.campaign(ctx, "prop "+prof.name, core.Campaign{
			Model: prof.m, Suite: suite, Fault: faults.Comp1Bit,
			Trials:  cfg.Trials,
			Seed:    cfg.Seed ^ hash2("prop", prof.name, "comp1"),
			Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}

		groups := map[numerics.BitClass][]trace.Record{}
		byBit := map[int][]trace.Record{}
		for _, r := range run.Records {
			if !r.Fired {
				continue
			}
			cls := numerics.ClassifyBit(dt, r.HighestBit)
			groups[cls] = append(groups[cls], r)
			byBit[r.HighestBit] = append(byBit[r.HighestBit], r)
		}
		for _, cls := range []numerics.BitClass{numerics.ExponentBit, numerics.MantissaBit, numerics.SignBit} {
			g := groups[cls]
			if len(g) == 0 {
				continue
			}
			st := summarizeTraces(g)
			t.Row(prof.name, cls.String(), len(g),
				100*st.divergedFrac, 100*st.atSiteFrac, st.meanDepth, 100*st.meanBlast, 100*st.sdcFrac)
			key := prof.name + "." + shortClass(cls)
			o.set(key+".fired", float64(len(g)))
			o.set(key+".diverged_frac", st.divergedFrac)
			o.set(key+".first_div_at_site", st.atSiteFrac)
			o.set(key+".mean_depth", st.meanDepth)
			o.set(key+".mean_blast", st.meanBlast)
		}

		fmt.Fprintf(&b, "%s — mean propagation depth (blocks past tolerance) by flipped bit:\n", prof.name)
		bits := make([]int, 0, len(byBit))
		for bit := range byBit {
			bits = append(bits, bit)
		}
		sort.Ints(bits)
		blocks := prof.m.Cfg.NBlocks
		for _, bit := range bits {
			st := summarizeTraces(byBit[bit])
			bar := 0
			if blocks > 0 {
				bar = int(st.meanDepth / float64(blocks) * 40)
			}
			fmt.Fprintf(&b, "  bit %2d (%-8s) n=%-3d depth %5.2f  %s\n",
				bit, numerics.ClassifyBit(dt, bit), len(byBit[bit]), st.meanDepth,
				strings.Repeat("█", bar))
		}
		b.WriteByte('\n')
	}

	o.Text = t.String() + "\n" + b.String() +
		"Expected shape (Figs. 5-6): the first out-of-tolerance activation sits\n" +
		"at the injected layer itself (AtSite ≈ 100% of diverged trials), and\n" +
		"exponent-bit flips cascade through essentially every downstream block\n" +
		"(depth ≈ model depth, blast ≈ 100%) while mantissa flips drown in\n" +
		"kernel round-off inside the struck layer (depth ≈ 0) — the numerical\n" +
		"mechanism behind mantissa faults being overwhelmingly Masked.\n"
	return o, nil
}

// traceStats aggregates a group of fired trace records.
type traceStats struct {
	divergedFrac float64 // fraction with any out-of-tolerance layer
	atSiteFrac   float64 // of diverged: first divergence at the injected layer+position
	meanDepth    float64 // mean blocks past tolerance at the strike position
	meanBlast    float64 // mean fraction of post-site invocations past tolerance
	sdcFrac      float64 // fraction with a non-Masked outcome
}

func summarizeTraces(g []trace.Record) traceStats {
	var st traceStats
	diverged := 0
	atSite := 0
	for _, r := range g {
		if r.FirstDivergence != nil {
			diverged++
			if r.FirstDivergence.Layer == r.Layer && r.FirstDivergence.Pos == r.StrikePos {
				atSite++
			}
		}
		st.meanDepth += float64(r.PropagationDepth)
		st.meanBlast += r.BlastRadius
		if r.Outcome != "Masked" {
			st.sdcFrac++
		}
	}
	n := float64(len(g))
	if n == 0 {
		return st
	}
	st.divergedFrac = float64(diverged) / n
	st.atSiteFrac = frac(atSite, diverged)
	st.meanDepth /= n
	st.meanBlast /= n
	st.sdcFrac /= n
	return st
}

func shortClass(c numerics.BitClass) string {
	switch c {
	case numerics.ExponentBit:
		return "exp"
	case numerics.MantissaBit:
		return "mant"
	case numerics.SignBit:
		return "sign"
	}
	return c.String()
}
