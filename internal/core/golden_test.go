package core

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/tasks"
)

// goldenModel builds an untrained profile model over the general vocab,
// optionally widened to a MoE.
func goldenModel(t *testing.T, fam model.Family, moe bool) *model.Model {
	t.Helper()
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("golden", vocab.Size(), numerics.BF16)
	if moe {
		cfg = model.MoEConfig(cfg)
	}
	return model.MustBuild(model.Spec{Config: cfg, Family: fam, Seed: 21})
}

// seedEquivalent runs the campaign twice — once through the prefix-cache
// engine (shared clones, batched prefill, snapshot reuse) and once pinned
// to the seed execution path (deep clones, sequential prefill, full
// re-prefill per trial) — and requires bit-identical trials and baseline
// outputs.
func seedEquivalent(t *testing.T, c Campaign) {
	t.Helper()

	engine := c
	engRes, err := engine.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	seedRes, err := seedPath(c).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for i := range seedRes.Baseline.Instances {
		a, b := &seedRes.Baseline.Instances[i], &engRes.Baseline.Instances[i]
		if a.Text != b.Text || a.Choice != b.Choice || a.Steps != b.Steps ||
			!reflect.DeepEqual(a.Metrics, b.Metrics) ||
			!reflect.DeepEqual(a.ExpertTrace, b.ExpertTrace) {
			t.Fatalf("baseline instance %d differs:\nseed   %+v\nengine %+v", i, a, b)
		}
	}
	if len(seedRes.Trials) != len(engRes.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(seedRes.Trials), len(engRes.Trials))
	}
	for i := range seedRes.Trials {
		if !reflect.DeepEqual(seedRes.Trials[i], engRes.Trials[i]) {
			t.Fatalf("trial %d differs:\nseed   %+v\nengine %+v", i, seedRes.Trials[i], engRes.Trials[i])
		}
	}
}

// TestEngineGoldenGenerative pins the full engine — batched prefill,
// baseline KV snapshot reuse, and copy-on-write worker clones — to the
// seed path for generative campaigns across fault models, architectures,
// and both decoding strategies.
func TestEngineGoldenGenerative(t *testing.T) {
	suite := tasks.NewSelfRefSuite("golden-gen", 5, 4, 24, 10, []metrics.Kind{metrics.KindBLEU})
	cases := []struct {
		name  string
		moe   bool
		fam   model.Family
		fault faults.Model
		gen   gen.Settings
	}{
		{"dense-greedy-comp1", false, model.QwenS, faults.Comp1Bit, gen.Settings{}},
		{"dense-beam-comp2", false, model.LlamaS, faults.Comp2Bit, gen.Settings{NumBeams: 3}},
		{"dense-greedy-mem2", false, model.FalconS, faults.Mem2Bit, gen.Settings{}},
		{"moe-greedy-comp2", true, model.QwenS, faults.Comp2Bit, gen.Settings{}},
		{"moe-greedy-mem2", true, model.LlamaS, faults.Mem2Bit, gen.Settings{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seedEquivalent(t, Campaign{
				Model:  goldenModel(t, tc.fam, tc.moe),
				Suite:  suite,
				Fault:  tc.fault,
				Trials: 12,
				Seed:   31,
				Gen:    tc.gen,
			})
		})
	}
}

// TestEngineGoldenMC pins multiple-choice rows — each trial's options
// teacher-forced one after another on one decode-loop row — to the seed
// path, which scores them through ChooseOption under the trial's
// observers, at widths 1 and 8: dense and MoE, transient and
// memory faults, without ABFT, under a site checker and under all-layer
// correcting ABFT, and with an ExtraHook that clamps what the fault
// struck.
func TestEngineGoldenMC(t *testing.T) {
	suite, err := tasks.NewMCSuite("arc", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	clamp := func() model.Hook {
		return func(_ model.LayerRef, _ int, out []float32) {
			for i, v := range out {
				out[i] = max(-8, min(8, v))
			}
		}
	}
	allCorrect := &ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true}
	cases := []struct {
		name string
		moe  bool
		abft *ABFTConfig
		hook func() model.Hook
	}{
		{"dense", false, nil, nil},
		{"moe", true, nil, nil},
		{"dense-abft-site", false, &ABFTConfig{}, nil},
		{"moe-abft-site", true, &ABFTConfig{}, nil},
		{"dense-abft-all-correct", false, allCorrect, nil},
		{"moe-abft-all-correct", true, allCorrect, nil},
		{"dense-extrahook", false, nil, clamp},
	}
	for _, fault := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
		t.Run(fault.String(), func(t *testing.T) {
			landed := 0
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					c := Campaign{
						Model:     goldenModel(t, model.QwenS, tc.moe),
						Suite:     suite,
						Fault:     fault,
						Trials:    12,
						Seed:      13,
						ABFT:      tc.abft,
						ExtraHook: tc.hook,
					}
					seed := mustRun(t, seedPath(c))
					for _, tr := range seed.Trials {
						if tr.Outcome.Changed || (tr.Detection != nil && tr.Detection.Flagged > 0) {
							landed++
						}
					}
					for _, width := range []int{1, 8} {
						c.BatchDecode = width
						tel := NewTelemetry()
						requireSameResult(t, seed, mustRun(t, c, WithTelemetry(tel)))
						if rows := tel.Snapshot().DecodeBatchRows; rows == 0 {
							t.Fatalf("width %d: no trial rode the decode loop", width)
						}
					}
				})
			}
			if landed == 0 {
				t.Fatal("no strike changed a choice or was flagged; the test would not notice one that never lands")
			}
		})
	}
}

// TestEngineGoldenWithMitigation pins the engine to the seed path with a
// range-restriction mitigation hook in the ExtraHook slot: the clamp must
// observe identical values on both paths (the snapshot already contains
// the mitigated prefill).
func TestEngineGoldenWithMitigation(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	suite := tasks.NewSelfRefSuite("golden-mit", 9, 3, 20, 8, []metrics.Kind{metrics.KindBLEU})

	// Profile fault-free ranges once, then deploy a restrictor per run.
	prof := mitigate.Calibrate(m, suite, 0)

	seedEquivalent(t, Campaign{
		Model:  m,
		Suite:  suite,
		Fault:  faults.Comp2Bit,
		Trials: 10,
		Seed:   77,
		ExtraHook: func() model.Hook {
			return mitigate.NewRestrictor(prof).Hook()
		},
	})
}

// TestEngineReusesPrefix asserts the fast path actually engages: a
// generative computational-fault campaign must start every trial from the
// baseline's state rather than silently falling back to a prefill — a
// greedy one as a decode-loop row from a resume point per generated token,
// a beam one from the post-prompt snapshot and its logits. An ExtraHook
// counting prompt positions sees the baseline's prefills and nothing more,
// where the seed path and memory-fault trials prefill every trial's prompt
// again.
func TestEngineReusesPrefix(t *testing.T) {
	m := goldenModel(t, model.QwenS, false)
	suite := tasks.NewSelfRefSuite("golden-reuse", 3, 2, 16, 6, []metrics.Kind{metrics.KindBLEU})
	gs := defaultGen()

	greedy := EvalBaseline(m, suite, gs, nil)
	for i, ib := range greedy.Instances {
		if ib.rec == nil || len(ib.rec.Resume) < len(ib.Tokens) || ib.rec.Logits != nil {
			t.Fatalf("instance %d: greedy baseline keeps its finished state and a resume point per token, got %d points for %d tokens",
				i, len(ib.rec.Resume), len(ib.Tokens))
		}
	}
	gs.NumBeams = 3
	beam := EvalBaseline(m, suite, gs, nil)
	for i, ib := range beam.Instances {
		if ib.rec == nil || ib.rec.Prefix.Pos() != len(suite.Instances[i].Prompt) ||
			len(ib.rec.Logits) != m.Cfg.Vocab || ib.rec.Resume != nil {
			t.Fatalf("instance %d: beam baseline keeps the post-prompt snapshot and its logits", i)
		}
	}

	// promptCalls runs c and counts the ExtraHook's calls at prompt
	// positions, over the baseline and every trial.
	promptCalls := func(c Campaign, opts ...RunnerOption) int64 {
		var calls atomic.Int64
		c.ExtraHook = func() model.Hook {
			return func(_ model.LayerRef, pos int, _ []float32) {
				if pos < len(suite.Instances[0].Prompt) {
					calls.Add(1)
				}
			}
		}
		mustRun(t, c, opts...)
		return calls.Load()
	}
	for _, beams := range []int{1, 3} {
		c := Campaign{Model: m, Suite: suite, Fault: faults.Comp2Bit, Trials: 4, Seed: 1, Gen: gen.Settings{NumBeams: beams}}
		baseline := promptCalls(c, WithOnly([]int{}))
		if got := promptCalls(c); baseline == 0 || got != baseline {
			t.Fatalf("beams %d: trials recomputed the prompt (%d calls at prompt positions, the baseline's %d)", beams, got, baseline)
		}
		if got := promptCalls(seedPath(c)); got <= baseline {
			t.Fatalf("beams %d: the seed path reused the prefix (%d calls at prompt positions, the baseline's %d)", beams, got, baseline)
		}
		c.Fault = faults.Mem2Bit
		if got := promptCalls(c); got <= baseline {
			t.Fatalf("beams %d: memory-fault trials reused the prefix (%d calls at prompt positions, the baseline's %d)", beams, got, baseline)
		}
	}
}

// TestEngineGoldenBeam pins beam-search rows — each trial's hypotheses
// taking turns on one decode-loop row — to the seed path, which runs the
// serial beam search on a model carrying the trial's observers, at widths
// 1, 3 and 8 with 2 and 3 beams: dense and MoE, transient and memory
// faults, without ABFT, under a site checker and under all-layer
// correcting ABFT, and with an ExtraHook that clamps what the fault
// struck. A transient row starts at the post-prompt fork, so its checker
// counts no prompt position; the seed path's counts the ones a clean
// prefill of the prompt counts.
func TestEngineGoldenBeam(t *testing.T) {
	suite := tasks.NewSelfRefSuite("golden-beam", 29, 3, 12, 6, []metrics.Kind{metrics.KindBLEU})
	clamp := func() model.Hook {
		return func(_ model.LayerRef, _ int, out []float32) {
			for i, v := range out {
				out[i] = max(-8, min(8, v))
			}
		}
	}
	allCorrect := &ABFTConfig{Policy: mitigate.PolicyCorrect, AllLayers: true}
	cases := []struct {
		name string
		moe  bool
		abft *ABFTConfig
		hook func() model.Hook
	}{
		{"dense", false, nil, nil},
		{"moe", true, nil, nil},
		{"dense-abft-site", false, &ABFTConfig{}, nil},
		{"moe-abft-site", true, &ABFTConfig{}, nil},
		{"dense-abft-all-correct", false, allCorrect, nil},
		{"moe-abft-all-correct", true, allCorrect, nil},
		{"dense-extrahook", false, nil, clamp},
	}
	for _, fault := range []faults.Model{faults.Comp2Bit, faults.Mem2Bit} {
		t.Run(fault.String(), func(t *testing.T) {
			landed := 0
			for _, tc := range cases {
				for _, beams := range []int{2, 3} {
					t.Run(fmt.Sprintf("%s/beams=%d", tc.name, beams), func(t *testing.T) {
						c := Campaign{
							Model:     goldenModel(t, model.QwenS, tc.moe),
							Suite:     suite,
							Fault:     fault,
							Trials:    10,
							Seed:      17,
							Gen:       gen.Settings{NumBeams: beams},
							ABFT:      tc.abft,
							ExtraHook: tc.hook,
						}
						seed := mustRun(t, seedPath(c))
						for i := range seed.Trials {
							tr := &seed.Trials[i]
							if tr.Outcome.Changed || (tr.Detection != nil && tr.Detection.Flagged > 0) {
								landed++
							}
							if tr.Detection != nil && !fault.IsMemory() {
								tr.Detection.Checks -= promptChecks(t, c, tr)
							}
						}
						for _, width := range []int{1, 3, 8} {
							c.BatchDecode = width
							tel := NewTelemetry()
							requireSameResult(t, seed, mustRun(t, c, WithTelemetry(tel)))
							if rows := tel.Snapshot().DecodeBatchRows; rows == 0 {
								t.Fatalf("width %d: no trial rode the decode loop", width)
							}
						}
					})
				}
			}
			if landed == 0 {
				t.Fatal("no strike changed an output or was flagged; the test would not notice one that never lands")
			}
		})
	}
}

// promptChecks counts the checks trial tr's checker makes over a clean
// prefill of its instance's prompt.
func promptChecks(t *testing.T, c Campaign, tr *Trial) int {
	t.Helper()
	chk, err := c.ABFT.Checker(c.ABFT.Table(c.Model), tr.Site.Layer)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Model.NewState()
	st.Checker = chk
	st.Prefill(c.Suite.Instances[tr.Instance].Prompt)
	return chk.Stats().Checks
}
