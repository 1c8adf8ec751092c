package outcome

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/tasks"
)

// degenerateRun generates once fault-free and once with corrupt injected
// into every LM-head logit vector from position fromPos on, and returns
// both token sequences.
func degenerateRun(t *testing.T, fromPos int, corrupt func(out []float32)) (baseline, faulty []int) {
	t.Helper()
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("degenerate", vocab.Size(), numerics.BF16)
	// Model/suite seeds chosen so the fault-free generation has zero
	// short-period repetition: the distortion verdicts below then isolate
	// the injected degeneracy rather than the untrained model's own loops.
	m := model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 21})
	suite := tasks.NewSelfRefSuite("degenerate", 4, 1, 12, 10, nil)
	prompt := suite.Instances[0].Prompt
	settings := gen.Defaults(suite.Instances[0].MaxNew)

	baseline = gen.Generate(m, prompt, settings).Tokens

	st := m.NewState()
	st.Hooks = []model.Hook{func(ref model.LayerRef, step int, out []float32) {
		if ref.Kind == model.KindLMHead && step >= fromPos {
			corrupt(out)
		}
	}}
	faulty = gen.GenerateFrom(m, st, st.Prefill(prompt), settings).Tokens
	return baseline, faulty
}

// TestClassifyNaNLogitsMidSequence pins the end-to-end behaviour when a
// fault floods the LM head with NaN mid-generation: tensor.SoftmaxRow /
// Argmax treat an all-NaN row as "no valid candidate" and fall back to
// index 0 (PAD), so the tail degenerates into a period-1 repetition that
// the classifier must call SDC-distorted.
func TestClassifyNaNLogitsMidSequence(t *testing.T) {
	const fromPos = 16 // prompt is 12 tokens; corrupt from the 5th decode step
	baseline, faulty := degenerateRun(t, fromPos, func(out []float32) {
		nan := float32(math.NaN())
		for i := range out {
			out[i] = nan
		}
	})

	if len(faulty) != len(baseline) {
		t.Logf("baseline %v", baseline)
		t.Logf("faulty   %v", faulty)
		t.Fatalf("lengths diverged: %d vs %d", len(faulty), len(baseline))
	}
	// Golden: the first 4 generated tokens predate the corruption and
	// match the baseline bit-for-bit; everything after collapses to PAD.
	for i, tok := range faulty {
		if i < 4 {
			if tok != baseline[i] {
				t.Fatalf("pre-fault token %d changed: %d vs %d", i, tok, baseline[i])
			}
		} else if tok != 0 {
			t.Fatalf("post-NaN token %d = %d, want PAD collapse", i, tok)
		}
	}

	a := Classify(faulty, baseline, false, Thresholds{})
	if a.Class != SDCDistorted {
		t.Fatalf("NaN tail classified %v, want SDC-distorted (analysis %+v)", a.Class, a)
	}
	if !a.Changed {
		t.Fatal("Changed not set")
	}
	if a.RepetitionFrac < 0.5 {
		t.Fatalf("repetition frac %.2f, want the PAD run to dominate", a.RepetitionFrac)
	}
}

// TestClassifyInfSpikeMidSequence pins the +Inf saturation case: a single
// saturated logit deterministically wins the argmax (SoftmaxRow puts all
// mass on the +Inf entries), steering generation onto a new but
// structurally well-formed path — subtly wrong, not distorted.
func TestClassifyInfSpikeMidSequence(t *testing.T) {
	const fromPos = 16
	spike := 0
	baseline, faulty := degenerateRun(t, fromPos, func(out []float32) {
		// Saturate a rotating real-token id so the output does not repeat.
		id := 10 + spike%7
		spike++
		out[id] = float32(math.Inf(1))
	})

	a := Classify(faulty, baseline, false, Thresholds{})
	if !a.Changed {
		t.Fatalf("Inf spike left output unchanged: %v vs %v", faulty, baseline)
	}
	if a.Class != SDCSubtle {
		t.Fatalf("Inf spike classified %v, want SDC-subtle (analysis %+v, faulty %v)", a.Class, a, faulty)
	}
	// With a matching answer the same evidence must stay Masked: the
	// distortion detector, not the spike itself, decides the class.
	if b := Classify(faulty, baseline, true, Thresholds{}); b.Class != Masked {
		t.Fatalf("answer-matching Inf spike classified %v, want Masked", b.Class)
	}
}

// TestClassifyTruncationByEOSInf pins the opposite failure: the fault
// saturates the stop token, generation halts immediately, and the empty
// (or near-empty) tail must classify as distorted via the truncation rule.
func TestClassifyTruncationByEOSInf(t *testing.T) {
	baseline, faulty := degenerateRun(t, 12, func(out []float32) {
		out[2] = float32(math.Inf(1)) // token.EOS
	})
	if len(faulty) != 0 {
		t.Fatalf("EOS saturation still generated %v", faulty)
	}
	a := Classify(faulty, baseline, false, Thresholds{})
	if a.Class != SDCDistorted {
		t.Fatalf("empty output classified %v, want SDC-distorted", a.Class)
	}
	if a.LengthRatio != 0 {
		t.Fatalf("length ratio %.2f, want 0", a.LengthRatio)
	}
}

// TestClassifyGoldenTable pins the classifier on hand-written token
// sequences covering the NaN/Inf shapes above without a model in the
// loop, so the thresholds cannot drift silently.
func TestClassifyGoldenTable(t *testing.T) {
	base := []int{10, 11, 12, 13, 14, 15, 16, 17}
	cases := []struct {
		name    string
		faulty  []int
		matches bool
		want    Class
		golden  string
	}{
		{"identical", base, true, Masked,
			"class=Masked rep=0.00 len=1.00 changed=false"},
		{"pad-collapse", []int{10, 11, 12, 0, 0, 0, 0, 0}, false, SDCDistorted,
			"class=SDC-distorted rep=0.62 len=1.00 changed=true"},
		{"empty", nil, false, SDCDistorted,
			"class=SDC-distorted rep=0.00 len=0.00 changed=true"},
		{"rerouted", []int{10, 11, 30, 31, 32, 33, 34, 35}, false, SDCSubtle,
			"class=SDC-subtle rep=0.00 len=1.00 changed=true"},
		{"rerouted-masked", []int{10, 11, 30, 31, 32, 33, 34, 35}, true, Masked,
			"class=Masked rep=0.00 len=1.00 changed=true"},
		{"period-2-loop", []int{10, 11, 20, 21, 20, 21, 20, 21, 20, 21}, false, SDCDistorted,
			"class=SDC-distorted rep=0.80 len=1.25 changed=true"},
	}
	for _, tc := range cases {
		a := Classify(tc.faulty, base, tc.matches, Thresholds{})
		if a.Class != tc.want {
			t.Errorf("%s: class %v, want %v", tc.name, a.Class, tc.want)
		}
		got := fmt.Sprintf("class=%v rep=%.2f len=%.2f changed=%v",
			a.Class, a.RepetitionFrac, a.LengthRatio, a.Changed)
		if got != tc.golden {
			t.Errorf("%s: golden mismatch\n got %s\nwant %s", tc.name, got, tc.golden)
		}
	}
}
