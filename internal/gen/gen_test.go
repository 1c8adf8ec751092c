package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/token"
)

func testModel(seed uint64) *model.Model {
	cfg := model.Config{
		Name: "gen-test", Vocab: 24, DModel: 16, NHeads: 2, NBlocks: 2,
		FFHidden: 24, MaxSeq: 48, Eps: 1e-5, DType: numerics.FP32,
		RopeTheta: 10000,
	}
	return model.MustBuild(model.Spec{Config: cfg, Family: model.LlamaS, Seed: seed})
}

func TestGreedyDeterministic(t *testing.T) {
	m := testModel(3)
	s := Defaults(8)
	a := Generate(m, []int{1, 5, 6}, s)
	b := Generate(m, []int{1, 5, 6}, s)
	if len(a.Tokens) != len(b.Tokens) {
		t.Fatal("nondeterministic generation length")
	}
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] {
			t.Fatal("nondeterministic generation")
		}
	}
}

func TestGreedyRespectsMaxNew(t *testing.T) {
	m := testModel(4)
	s := Defaults(5)
	s.MinNewTokens = 5 // EOS banned throughout, so length is exactly 5
	res := Generate(m, []int{1, 5}, s)
	if len(res.Tokens) != 5 {
		t.Fatalf("generated %d tokens, want 5", len(res.Tokens))
	}
}

func TestBanSpecials(t *testing.T) {
	f := func(seed uint64) bool {
		m := testModel(seed%16 + 1)
		s := Defaults(10)
		res := Generate(m, []int{1, 5, 7}, s)
		for _, tok := range res.Tokens {
			if tok == token.PAD || tok == token.BOS || tok == token.UNK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestBeamOneMatchesGreedy(t *testing.T) {
	// With a single beam the search must produce exactly the greedy
	// sequence.
	for seed := uint64(1); seed <= 6; seed++ {
		m := testModel(seed)
		g := Generate(m, []int{1, 5, 6}, Defaults(10))
		s := Defaults(10)
		s.NumBeams = 1
		b := beam(m, []int{1, 5, 6}, s)
		if len(g.Tokens) != len(b.Tokens) {
			t.Fatalf("seed %d: beam-1 len %d vs greedy %d", seed, len(b.Tokens), len(g.Tokens))
		}
		for i := range g.Tokens {
			if g.Tokens[i] != b.Tokens[i] {
				t.Fatalf("seed %d: beam-1 diverges from greedy at %d", seed, i)
			}
		}
	}
}

func TestBeamLogProbMonotone(t *testing.T) {
	// Wider beams can only find sequences of equal or higher cumulative
	// log-probability (they search a superset of paths).
	for seed := uint64(1); seed <= 5; seed++ {
		m := testModel(seed)
		prompt := []int{1, 5, 6, 7}
		var prev float64 = math.Inf(-1)
		for _, beams := range []int{1, 2, 4, 8} {
			s := Defaults(8)
			s.NumBeams = beams
			res := Generate(m, prompt, s)
			if res.LogProb+1e-6 < prev {
				t.Fatalf("seed %d: beam %d logprob %.6f < narrower beam %.6f",
					seed, beams, res.LogProb, prev)
			}
			prev = res.LogProb
		}
	}
}

func TestBeamStepsGrowWithWidth(t *testing.T) {
	m := testModel(7)
	prompt := []int{1, 5, 6}
	s1 := Defaults(8)
	s6 := Defaults(8)
	s6.NumBeams = 6
	r1 := Generate(m, prompt, s1)
	r6 := Generate(m, prompt, s6)
	if r6.Steps <= r1.Steps {
		t.Fatalf("beam-6 steps %d should exceed greedy %d", r6.Steps, r1.Steps)
	}
}

func TestScoreOptionAdditive(t *testing.T) {
	m := testModel(9)
	prompt := []int{1, 5, 6}
	opt := []int{7, 8}
	got := ScoreOption(m, prompt, opt)

	// Manual: sum of per-token log-softmax probabilities.
	st := m.NewState()
	logits := st.Prefill(prompt)
	var want float64
	for _, tok := range opt {
		lsm := logSoftmax(logits)
		want += lsm[tok]
		logits = st.DecodeStep(tok)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ScoreOption = %f, manual = %f", got, want)
	}
}

func logSoftmax(row []float32) []float64 {
	maxv := math.Inf(-1)
	for _, v := range row {
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v) - maxv)
	}
	out := make([]float64, len(row))
	for i, v := range row {
		out[i] = float64(v) - maxv - math.Log(sum)
	}
	return out
}

func TestChooseOptionPicksBest(t *testing.T) {
	m := testModel(11)
	prompt := []int{1, 5}
	options := [][]int{{6}, {7}, {8, 9}}
	best, scores := ChooseOption(m, prompt, options)
	for i, s := range scores {
		if s > scores[best] {
			t.Fatalf("option %d score %f beats chosen %d (%f)", i, s, best, scores[best])
		}
	}
}

func TestGenerationStopsOnEOS(t *testing.T) {
	m := testModel(13)
	// Force EOS by hooking the LM head and boosting the EOS logit.
	m.AddHook(func(ref model.LayerRef, pos int, out []float32) {
		if ref.Kind == model.KindLMHead && pos >= 4 {
			out[token.EOS] = 1e4
		}
	})
	defer m.ClearHooks()
	res := Generate(m, []int{1, 5}, Defaults(20))
	if !res.Stopped {
		t.Fatal("generation should have stopped on EOS")
	}
	if len(res.Tokens) > 4 {
		t.Fatalf("generated %d tokens after forced EOS", len(res.Tokens))
	}
}

// TestStepperNextDoesNotAllocate: Next runs once per token of every
// campaign trial and every served request, and reads one log-probability
// off the logits — no vocabulary-wide scratch. (Tokens has room here; its
// amortised growth is the caller's output, not scratch.)
func TestStepperNextDoesNotAllocate(t *testing.T) {
	m := testModel(3)
	logits := append([]float32(nil), m.NewState().Prefill([]int{1, 5, 6})...)
	s := Defaults(1 << 20)
	s.StopToken = -1 // never chosen: every call takes the full path
	sp := NewStepper(s)
	sp.res.Tokens = make([]int, 0, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, step := sp.Next(logits, 3, m.Cfg.MaxSeq); !step {
			t.Fatal("decode ended; the measurement would cover the early return only")
		}
	})
	if allocs != 0 {
		t.Fatalf("Stepper.Next allocates %v times per token", allocs)
	}
}
