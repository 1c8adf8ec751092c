package tasks

import (
	"fmt"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/token"
)

// MathTask is the GSM8k surrogate: three-operand addition posed as a
// word problem skeleton. In Chain-of-Thought mode the model must emit the
// two intermediate partial sums before the final answer; in direct mode
// (the paper's "output only the final numerical answer" instruction,
// §4.3.2) it must produce the answer immediately.
//
//	CoT:    solve 3 + 5 + 9 =  →  3 + 5 = 8 ; 8 + 9 = 17 ; # 17
//	Direct: direct 3 + 5 + 9 = →  # 17
//
// The reasoning chain reproduces Figure 12's failure mode: a fault that
// corrupts an intermediate sum propagates to the final answer — unless
// the model recovers by re-attending to the operands (Observation #10).
type MathTask struct {
	vocab *token.Vocab
	// maxOperand bounds each operand (answers reach 3*maxOperand).
	maxOperand int
}

// Math task marker words.
const (
	MathSolve  = "solve"
	MathDirect = "direct"
	MathAnswer = "#"
)

// NewMathTask builds the arithmetic task with operands in [0, maxOperand].
func NewMathTask(maxOperand int) *MathTask {
	words := []string{"+", "=", ";", MathAnswer, MathSolve, MathDirect}
	for i := 0; i <= 3*maxOperand; i++ {
		words = append(words, strconv.Itoa(i))
	}
	return &MathTask{vocab: token.NewVocab(words), maxOperand: maxOperand}
}

// Name implements TrainTask.
func (t *MathTask) Name() string { return "math" }

// Vocab implements TrainTask.
func (t *MathTask) Vocab() *token.Vocab { return t.vocab }

// MaxLen implements TrainTask: prompt (8 tokens incl. BOS) + CoT
// completion (14) + EOS.
func (t *MathTask) MaxLen() int { return 8 + 14 + 1 }

// num returns the token id of integer v.
func (t *MathTask) num(v int) int { return t.vocab.ID(strconv.Itoa(v)) }

// Problem is one arithmetic instance.
type Problem struct {
	A, B, C int
}

// Answer returns the final sum.
func (p Problem) Answer() int { return p.A + p.B + p.C }

// Prompt tokenizes the problem statement for the given mode.
func (t *MathTask) Prompt(p Problem, cot bool) []int {
	mode := MathDirect
	if cot {
		mode = MathSolve
	}
	return []int{
		token.BOS, t.vocab.ID(mode),
		t.num(p.A), t.vocab.ID("+"), t.num(p.B), t.vocab.ID("+"), t.num(p.C),
		t.vocab.ID("="),
	}
}

// Completion returns the gold output tokens for the given mode (without
// EOS).
func (t *MathTask) Completion(p Problem, cot bool) []int {
	if !cot {
		return []int{t.vocab.ID(MathAnswer), t.num(p.Answer())}
	}
	s1 := p.A + p.B
	return []int{
		t.num(p.A), t.vocab.ID("+"), t.num(p.B), t.vocab.ID("="), t.num(s1), t.vocab.ID(";"),
		t.num(s1), t.vocab.ID("+"), t.num(p.C), t.vocab.ID("="), t.num(p.Answer()), t.vocab.ID(";"),
		t.vocab.ID(MathAnswer), t.num(p.Answer()),
	}
}

// Pair implements TrainTask, mixing CoT and direct examples 3:1 so the
// model supports both prompting modes.
func (t *MathTask) Pair(src *prng.Source) (prompt, completion []int) {
	p := Problem{
		A: src.Intn(t.maxOperand + 1),
		B: src.Intn(t.maxOperand + 1),
		C: src.Intn(t.maxOperand + 1),
	}
	cot := src.Intn(4) != 0
	return t.Prompt(p, cot), t.Completion(p, cot)
}

// NoiseProb is the fraction of CoT training examples whose input chain
// carries one corrupted intermediate number. Supervising the clean
// continuation on corrupted chains teaches the model to recover from
// wrong reasoning tokens — the behaviour Observation #10 measures.
const NoiseProb = 0.25

// CorruptInputs implements NoisyTask: with probability NoiseProb, one
// number token inside the reasoning region (before the '#' marker) is
// replaced by a random number. Labels are untouched by the trainer, so
// the model learns to emit the correct partial sums and final answer
// even when the visible chain is wrong.
func (t *MathTask) CorruptInputs(src *prng.Source, inputs []int, promptLen int) []int {
	if src.Float64() >= NoiseProb {
		return inputs
	}
	marker := t.vocab.ID(MathAnswer)
	var numPos []int
	for i := promptLen; i < len(inputs); i++ {
		if inputs[i] == marker {
			break
		}
		if _, ok := t.tokenValue(inputs[i]); ok {
			numPos = append(numPos, i)
		}
	}
	if len(numPos) == 0 {
		return inputs
	}
	pos := numPos[src.Intn(len(numPos))]
	inputs[pos] = t.num(src.Intn(3*t.maxOperand + 1))
	return inputs
}

// ExtractAnswer parses a generated token sequence: the number following
// the final '#' marker, or the last number token if no marker survived.
// It returns -1 when no number is present at all (fully distorted
// output).
func (t *MathTask) ExtractAnswer(toks []int) int {
	marker := t.vocab.ID(MathAnswer)
	ans := -1
	lastNum := -1
	for i, tok := range toks {
		if v, ok := t.tokenValue(tok); ok {
			lastNum = v
			if i > 0 && toks[i-1] == marker {
				ans = v
			}
		}
	}
	if ans >= 0 {
		return ans
	}
	return lastNum
}

// tokenValue decodes a number token.
func (t *MathTask) tokenValue(tok int) (int, bool) {
	w := t.vocab.Word(tok)
	v, err := strconv.Atoi(w)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Suite materializes n evaluation instances. cot selects the prompting
// mode; the reference text is the gold completion, so accuracy measures
// genuine correctness of the trained model.
func (t *MathTask) Suite(seed uint64, n int, cot bool) *Suite {
	src := prng.New(seed ^ hashName("gsm8k"))
	name := "gsm8k"
	if !cot {
		name = "gsm8k-direct"
	}
	s := &Suite{
		Name:    name,
		Dataset: "GSM8k",
		Type:    Generative,
		Vocab:   t.vocab,
		Metrics: []metrics.Kind{metrics.KindAccuracy},
	}
	maxNew := 16
	if !cot {
		maxNew = 4
	}
	for i := 0; i < n; i++ {
		isrc := src.Split(uint64(i))
		p := Problem{
			A: isrc.Intn(t.maxOperand + 1),
			B: isrc.Intn(t.maxOperand + 1),
			C: isrc.Intn(t.maxOperand + 1),
		}
		s.Instances = append(s.Instances, Instance{
			ID:        fmt.Sprintf("%s-%03d", name, i),
			Prompt:    t.Prompt(p, cot),
			Reference: fmt.Sprintf("%d", p.Answer()),
			MaxNew:    maxNew,
		})
	}
	return s
}

// ReasoningLength returns the number of generated tokens before the '#'
// answer marker in a token sequence (the reasoning segment length used to
// restrict computational-fault iterations in the CoT study, §4.3.2).
func (t *MathTask) ReasoningLength(toks []int) int {
	marker := t.vocab.ID(MathAnswer)
	for i, tok := range toks {
		if tok == marker {
			return i
		}
	}
	return len(toks)
}
