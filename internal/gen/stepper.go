package gen

import "repro/internal/tensor"

// Stepper is a decode loop — greedy (NewStepper) or a scorer's (Scorer) —
// unrolled into a per-token state machine, so a continuous-batching
// scheduler can interleave many trials' loops while each one visits
// exactly the computation the serial loop would. Feed it the logits of
// the current position; it tells you which token to decode next and
// whether to keep going. The serial drivers (ContinueGreedy,
// ResumableGreedy, ScoreOption) run on Stepper too, so the two can never
// drift apart.
type Stepper struct {
	s      Settings
	forced []int // a scorer's option; s.MaxNewTokens is its length
	res    Result
	i      int
	done   bool
}

// NewStepper starts a greedy decode under s.
func NewStepper(s Settings) Stepper {
	return Stepper{s: s}
}

// Scorer starts a teacher-forced decode of option (§3.3.2): Next feeds its
// tokens in order, and Result().LogProb sums each one's log-probability
// under the unmasked logits it is fed at. Tokens stays empty.
func Scorer(option []int) Stepper {
	return Stepper{s: Settings{MaxNewTokens: len(option)}, forced: option}
}

// Next consumes the logits of the state's current position and returns
// the chosen token plus whether the caller should run a decode step
// with it. A greedy Stepper masks the logits in place exactly as
// ContinueGreedy masks them; a scorer reads them unmasked. pos and maxSeq
// are the state's position and the model's sequence capacity — when step
// is false the loop is over and Result holds the finished generation.
// Note the serial loop runs one final DecodeStep whose logits are never
// consumed (the step that would produce the token after the last kept
// one); Next preserves that: step is true for the last kept token, and
// the following Next call returns step=false without looking at the
// logits only when the token budget is exhausted.
func (sp *Stepper) Next(logits []float32, pos, maxSeq int) (tok int, step bool) {
	if sp.done || sp.i >= sp.s.MaxNewTokens {
		return 0, false
	}
	if sp.forced != nil {
		tok = sp.forced[sp.i]
	} else {
		logits = maskLogits(logits, sp.s, sp.i)
		tok = tensor.Argmax(logits)
	}
	sp.res.LogProb += tensor.LogSoftmaxAt(logits, tok)
	sp.res.Steps++
	sp.i++
	if sp.forced == nil {
		if tok == sp.s.StopToken {
			sp.res.Stopped, sp.done = true, true
			return tok, false
		}
		sp.res.Tokens = append(sp.res.Tokens, tok)
	}
	if pos >= maxSeq {
		sp.done = true
		return tok, false
	}
	return tok, true
}

// Result returns the generation accumulated so far; it is final once
// Next has returned step=false.
func (sp *Stepper) Result() Result {
	return sp.res
}
