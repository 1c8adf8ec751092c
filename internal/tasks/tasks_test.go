package tasks

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prng"
	"repro/internal/token"
)

func TestMCSuiteDeterministic(t *testing.T) {
	a, err := NewMCSuite("mmlu", 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewMCSuite("mmlu", 7, 5)
	for i := range a.Instances {
		if a.Instances[i].ID != b.Instances[i].ID {
			t.Fatal("IDs differ")
		}
		for j := range a.Instances[i].Prompt {
			if a.Instances[i].Prompt[j] != b.Instances[i].Prompt[j] {
				t.Fatal("prompts differ across builds")
			}
		}
	}
	c, _ := NewMCSuite("mmlu", 8, 5)
	if c.Instances[0].Prompt[2] == a.Instances[0].Prompt[2] &&
		c.Instances[1].Prompt[2] == a.Instances[1].Prompt[2] &&
		c.Instances[2].Prompt[2] == a.Instances[2].Prompt[2] {
		t.Fatal("different seeds produced identical prompts")
	}
}

func TestAllMCSuitesWellFormed(t *testing.T) {
	for _, name := range MCSuiteNames() {
		s, err := NewMCSuite(name, 3, 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Type != MultipleChoice {
			t.Fatalf("%s: wrong type", name)
		}
		for _, inst := range s.Instances {
			if len(inst.Options) < 2 {
				t.Fatalf("%s: instance with %d options", name, len(inst.Options))
			}
			if inst.Gold < 0 || inst.Gold >= len(inst.Options) {
				t.Fatalf("%s: gold out of range", name)
			}
			for _, opt := range inst.Options {
				for _, id := range opt {
					if id < token.NumReserved || id >= s.Vocab.Size() {
						t.Fatalf("%s: option token %d out of vocab", name, id)
					}
				}
			}
		}
	}
	if _, err := NewMCSuite("nope", 1, 1); err == nil {
		t.Fatal("unknown suite should error")
	}
}

func TestWinograndeHasTwoOptions(t *testing.T) {
	s, _ := NewMCSuite("winogrande", 1, 3)
	for _, inst := range s.Instances {
		if len(inst.Options) != 2 {
			t.Fatal("winogrande is binary choice")
		}
	}
}

func TestMathCompletionCorrect(t *testing.T) {
	mt := NewMathTask(9)
	f := func(aR, bR, cR uint8) bool {
		p := Problem{A: int(aR % 10), B: int(bR % 10), C: int(cR % 10)}
		cot := mt.Completion(p, true)
		if ExtractAnswer(mt.Vocab(), cot) != p.Answer() {
			return false
		}
		direct := mt.Completion(p, false)
		return ExtractAnswer(mt.Vocab(), direct) == p.Answer()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMathExtractAnswerFallback(t *testing.T) {
	mt := NewMathTask(9)
	v := mt.Vocab()
	// No '#': fall back to last number.
	toks := []int{v.ID("3"), v.ID("+"), v.ID("5")}
	if ExtractAnswer(v, toks) != 5 {
		t.Fatal("fallback to last number failed")
	}
	// No numbers at all.
	if ExtractAnswer(v, []int{v.ID("+"), v.ID(";")}) != -1 {
		t.Fatal("no-number extraction should be -1")
	}
}

func TestMathReasoningLength(t *testing.T) {
	mt := NewMathTask(9)
	p := Problem{A: 1, B: 2, C: 3}
	cot := mt.Completion(p, true)
	rl := ReasoningLength(mt.Vocab(), cot)
	if rl != 12 {
		t.Fatalf("reasoning length = %d, want 12", rl)
	}
	direct := mt.Completion(p, false)
	if ReasoningLength(mt.Vocab(), direct) != 0 {
		t.Fatal("direct mode reasoning length should be 0")
	}
}

func TestMathCorruptInputsPreservesLabelsRegion(t *testing.T) {
	mt := NewMathTask(9)
	p := Problem{A: 3, B: 4, C: 5}
	prompt := mt.Prompt(p, true)
	completion := mt.Completion(p, true)
	seq := append(append([]int{}, prompt...), completion...)
	changed := 0
	for i := 0; i < 400; i++ {
		inputs := append([]int(nil), seq...)
		out := mt.CorruptInputs(prng.New(uint64(i)), inputs, len(prompt))
		diffs := 0
		for j := range out {
			if out[j] != seq[j] {
				diffs++
				if j < len(prompt) {
					t.Fatal("corruption touched the prompt region")
				}
			}
		}
		if diffs > 1 {
			t.Fatalf("corrupted %d positions, want <= 1", diffs)
		}
		if diffs == 1 {
			changed++
		}
	}
	if changed == 0 || changed == 400 {
		t.Fatalf("corruption rate %d/400 implausible for NoiseProb %.2f", changed, NoiseProb)
	}
}

func TestMathSuiteModes(t *testing.T) {
	mt := NewMathTask(9)
	cot := mt.Suite(3, 5, true)
	direct := mt.Suite(3, 5, false)
	if cot.Instances[0].MaxNew <= direct.Instances[0].MaxNew {
		t.Fatal("CoT suite should allow longer generations")
	}
	v := mt.Vocab()
	if cot.Instances[0].Prompt[1] != v.ID(MathSolve) {
		t.Fatal("CoT prompt should start with solve marker")
	}
	if direct.Instances[0].Prompt[1] != v.ID(MathDirect) {
		t.Fatal("direct prompt should start with direct marker")
	}
	// Same seed: same problems in both modes.
	if cot.Instances[2].Reference != direct.Instances[2].Reference {
		t.Fatal("modes should share problems for a given seed")
	}
}

func TestTranslationMappingBijective(t *testing.T) {
	tt := NewTranslationTask()
	seen := map[string]bool{}
	for _, p := range translationPairs {
		if seen[p[1]] {
			t.Fatalf("duplicate target word %q", p[1])
		}
		seen[p[1]] = true
		if tt.mapping[p[0]] != p[1] {
			t.Fatal("mapping mismatch")
		}
	}
}

func TestTranslationPairConsistent(t *testing.T) {
	tt := NewTranslationTask()
	f := func(seed uint64) bool {
		prompt, completion := tt.Pair(prng.New(seed))
		if len(prompt) < 3 || len(prompt) > tt.MaxLen() {
			return false
		}
		// prompt = BOS translate <src...> => ; completion = mapped words.
		src := prompt[2 : len(prompt)-1]
		if len(src) != len(completion) {
			return false
		}
		for i, sid := range src {
			want := tt.mapping[tt.vocab.Word(sid)]
			if tt.vocab.Word(completion[i]) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummPairIsLeadSentence(t *testing.T) {
	st := NewSummTask()
	f := func(seed uint64) bool {
		prompt, completion := st.Pair(prng.New(seed))
		if len(completion) != st.senLen {
			return false
		}
		// The completion must equal the words right after the marker.
		for i, id := range completion {
			if prompt[2+i] != id {
				return false
			}
		}
		return len(prompt)+len(completion)+1 <= st.MaxLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQAPairAnswerInContext(t *testing.T) {
	qt := NewQATask()
	f := func(seed uint64) bool {
		prompt, completion := qt.Pair(prng.New(seed))
		if len(completion) != 1 {
			return false
		}
		// The answer token must appear in the prompt (span extraction).
		found := false
		for _, id := range prompt {
			if id == completion[0] {
				found = true
			}
		}
		return found && len(prompt)+2 <= qt.MaxLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQASuiteGoldConsistent(t *testing.T) {
	qt := NewQATask()
	s := qt.Suite(5, 10)
	for _, inst := range s.Instances {
		if !qt.vocab.Has(inst.Reference) {
			t.Fatalf("reference %q not in vocab", inst.Reference)
		}
	}
}

func TestTrainTasksMaxLen(t *testing.T) {
	for _, task := range []TrainTask{
		NewMathTask(9), NewTranslationTask(), NewSummTask(), NewQATask(),
	} {
		f := func(seed uint64) bool {
			prompt, completion := task.Pair(prng.New(seed))
			return len(prompt)+len(completion)+1 <= task.MaxLen()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", task.Name(), err)
		}
	}
}

func TestSelfRefSuite(t *testing.T) {
	s := NewSelfRefSuite("x", 3, 4, 8, 12, nil)
	if len(s.Instances) != 4 {
		t.Fatal("instance count")
	}
	for _, inst := range s.Instances {
		if inst.Reference != "" {
			t.Fatal("self-ref suites must have empty references")
		}
		if len(inst.Prompt) != 9 { // BOS + 8 words
			t.Fatalf("prompt length %d", len(inst.Prompt))
		}
	}
}

func TestGeneralVocabStable(t *testing.T) {
	a := GeneralVocab()
	b := GeneralVocab()
	if a.Size() != b.Size() {
		t.Fatal("vocab size unstable")
	}
	for i := 0; i < a.Size(); i++ {
		if a.Word(i) != b.Word(i) {
			t.Fatal("vocab order unstable")
		}
	}
}

func TestSuiteMaxSeqNeeded(t *testing.T) {
	mt := NewMathTask(9)
	s := mt.Suite(1, 5, true)
	need := s.MaxSeqNeeded()
	for _, inst := range s.Instances {
		if len(inst.Prompt)+inst.MaxNew+1 > need {
			t.Fatal("MaxSeqNeeded underestimates")
		}
	}
}

func TestMathVocabNumbers(t *testing.T) {
	mt := NewMathTask(9)
	v := mt.Vocab()
	for i := 0; i <= 27; i++ {
		if !v.Has(strconv.Itoa(i)) {
			t.Fatalf("missing number token %d", i)
		}
	}
}

func TestMCPromptEndsWithMarkers(t *testing.T) {
	s, _ := NewMCSuite("arc", 2, 3)
	for _, inst := range s.Instances {
		text := s.Vocab.DecodeAll(inst.Prompt)
		if !strings.HasSuffix(text, "question answer") {
			t.Fatalf("prompt %q should end with question/answer markers", text)
		}
	}
}
