// Package repro's benchmark harness: one testing.B entry per table and
// figure of the paper. Each benchmark runs the corresponding experiment
// at a reduced campaign size (raise via cmd/figures -trials for paper-
// scale runs) and reports the experiment's headline number as a custom
// metric, so `go test -bench=. -benchmem` regenerates every artifact and
// prints its key quantities.
//
// Every campaign an experiment runs is memoized for the rest of the
// process, so the first iteration of any campaign-backed benchmark pays
// the campaign cost (none at all when an earlier benchmark ran the same
// campaign: Fig3/4/11, Fig8/9/10, Fig7/12) and later iterations measure
// only aggregation and rendering.
package repro

import (
	"context"
	"testing"

	"repro/internal/experiments"
)

// benchCfg keeps benchmark campaigns small enough for CI-style runs.
var benchCfg = experiments.Config{Trials: 60, Instances: 6, Seed: 2025}

func runExperiment(b *testing.B, id string, keys ...string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var out *experiments.Outcome
	for i := 0; i < b.N; i++ {
		out, err = e.Run(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, ok := out.Numbers[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

func BenchmarkTable1Workloads(b *testing.B) { runExperiment(b, "table1", "table1.suites") }
func BenchmarkTable2Formats(b *testing.B)   { runExperiment(b, "table2", "table2.BF16.expbits") }
func BenchmarkFig3Overall(b *testing.B) {
	runExperiment(b, "fig3", "fig3.mean_norm", "fig3.worst_norm")
}
func BenchmarkFig4FaultModels(b *testing.B) {
	runExperiment(b, "fig4", "fig4.2bits-mem", "fig4.2bits-comp")
}
func BenchmarkFig5MemTrace(b *testing.B)     { runExperiment(b, "fig5", "fig5.next_layer_frac") }
func BenchmarkFig6CompTrace(b *testing.B)    { runExperiment(b, "fig6", "fig6.next_layer_frac") }
func BenchmarkFig7Examples(b *testing.B)     { runExperiment(b, "fig7", "fig7.distorted") }
func BenchmarkFig8SDCBreakdown(b *testing.B) { runExperiment(b, "fig8") }
func BenchmarkFig9BitPosition(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig10BitPosition(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11PerTask(b *testing.B) {
	runExperiment(b, "fig11", "fig11.mc_avg", "fig11.gen_avg")
}
func BenchmarkFig12ReasoningSDC(b *testing.B) { runExperiment(b, "fig12", "fig12.found") }
func BenchmarkFig13Distributions(b *testing.B) {
	runExperiment(b, "fig13", "fig13.QwenS.weight_std", "fig13.FalconS.weight_std")
}
func BenchmarkFig14MoE(b *testing.B) {
	runExperiment(b, "fig14", "fig14.wmt16-like.moe", "fig14.wmt16-like.dense")
}
func BenchmarkFig15GateFaults(b *testing.B) {
	runExperiment(b, "fig15", "fig15.expert_changed", "fig15.output_changed_given_expert")
}
func BenchmarkFig16Scale(b *testing.B) { runExperiment(b, "fig16", "fig16.spread_std") }
func BenchmarkFig17Quant(b *testing.B) {
	runExperiment(b, "fig17", "fig17.BF16", "fig17.GPTQ-4bit")
}
func BenchmarkFig18Beam(b *testing.B) {
	runExperiment(b, "fig18", "fig18.WMT16/ALMA-S.greedy", "fig18.WMT16/ALMA-S.beam6")
}
func BenchmarkFig19BeamTradeoff(b *testing.B) {
	runExperiment(b, "fig19", "fig19.beam1.norm", "fig19.beam2.norm", "fig19.beam8.steps")
}
func BenchmarkFig20CoT(b *testing.B) {
	runExperiment(b, "fig20", "fig20.Qwen2.5-S.2bits-comp.cot", "fig20.Qwen2.5-S.2bits-comp.direct")
}
func BenchmarkFig21Datatype(b *testing.B) {
	runExperiment(b, "fig21", "fig21.FP16.2bits-mem", "fig21.BF16.2bits-mem")
}

func BenchmarkObs4FineTuned(b *testing.B) {
	runExperiment(b, "obs4", "obs4.wmt16.finetuned", "obs4.wmt16.general_avg")
}

// Extension and ablation studies (beyond the paper's figures).

func BenchmarkExt1RangeRestriction(b *testing.B) {
	runExperiment(b, "ext1", "ext1.2bits-mem.plain", "ext1.2bits-mem.protected")
}
func BenchmarkExt2Checksums(b *testing.B) {
	runExperiment(b, "ext2", "ext2.detected", "ext2.localized")
}
func BenchmarkAbl1Sampling(b *testing.B) {
	runExperiment(b, "abl1", "abl1.type_uniform", "abl1.instance_uniform")
}
func BenchmarkAbl2Thresholds(b *testing.B) { runExperiment(b, "abl2") }
