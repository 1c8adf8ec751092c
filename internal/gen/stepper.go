package gen

import (
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/tensor"
)

// Stepper is a decode loop — greedy or beam search (NewStepper), or a
// scorer's (Scorer) — unrolled into a per-token state machine, so a
// continuous-batching scheduler can interleave many trials' loops while
// each one visits exactly the computation the serial loop would. Feed it
// the state and logits of the current position; it tells you which state
// to decode next, with which token, and whether to keep going. The serial
// drivers (GenerateFrom, ResumableGreedy, ScoreOption) run on Stepper too,
// so the two can never drift apart.
type Stepper struct {
	s      Settings
	forced []int // a scorer's option; s.MaxNewTokens is its length
	beam   *beam // beam search's hypotheses, from its first step on
	res    Result
	i      int
	done   bool
}

// NewStepper starts a decode under s: greedy, or beam search when
// s.NumBeams > 1.
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
// with it — the greedy and scorer step; beam search moves between states
// and runs only through the serial loop or a Loop. A greedy Stepper masks
// the logits in place; a scorer reads them unmasked. pos and maxSeq are
// the state's position and the model's sequence capacity — when step is
// false the loop is over and Result holds the finished generation.
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

// step is what every decode driver calls: it consumes the logits st
// computed at its current position and returns the state to decode next,
// the token to decode on it, and whether to decode at all. A greedy or
// scorer Stepper returns st itself (Next); a beam search returns the state
// of its next hypothesis.
func (sp *Stepper) step(st *model.State, logits []float32, maxSeq int) (*model.State, int, bool) {
	if sp.s.NumBeams <= 1 {
		tok, ok := sp.Next(logits, st.Pos, maxSeq)
		return st, tok, ok
	}
	b := sp.beam
	if b == nil {
		b = &beam{live: []*hypothesis{{st: st}}}
		sp.beam = b
	}
	h := b.live[b.k]
	h.logits = append(h.logits[:0], logits...)
	for b.k++; b.k == len(b.live); b.k = 0 {
		// The round is over. Early exit: if the best finished hypothesis
		// already beats every live one, no live beam can overtake it
		// (log-probs only decrease).
		if best := bestHyp(b.done); best != nil &&
			!slices.ContainsFunc(b.live, func(h *hypothesis) bool { return h.logProb > best.logProb }) {
			b.live = nil
		}
		if sp.i >= sp.s.MaxNewTokens || len(b.live) == 0 {
			if best := bestHyp(append(b.done, b.live...)); best != nil {
				// A hypothesis that finished on StopToken keeps no state.
				sp.res.Tokens, sp.res.LogProb, sp.res.Stopped = best.tokens, best.logProb, best.st == nil
			}
			return st, 0, false
		}
		sp.rank(b, maxSeq)
		sp.i++
	}
	h = b.live[b.k]
	sp.res.Steps++
	return h.st, h.tokens[len(h.tokens)-1], true
}

// beam is a Stepper's beam search: each round ranks every live
// hypothesis's NumBeams best continuations and keeps the best NumBeams,
// and the survivors then decode one per step, in rank order, each on a
// state of its own.
type beam struct {
	live []*hypothesis // the round's survivors
	k    int           // live[k] is the one decoding now
	done []*hypothesis // finished: on StopToken, or at the model's MaxSeq
}

// hypothesis is one beam.
type hypothesis struct {
	st      *model.State // nil once finished on StopToken
	tokens  []int
	logProb float64
	logits  []float32
	taken   bool // a survivor took st; later ones fork it
}

// rank starts round sp.i. A survivor that ends on StopToken, or whose
// state is at maxSeq, finishes without a step. The others become the
// round's live hypotheses: the first of a parent's survivors takes the
// parent's state and every later one a fork of it, all before the
// round's first step.
func (sp *Stepper) rank(b *beam, maxSeq int) {
	type cand struct {
		parent *hypothesis
		tok    int
		lp     float64
	}
	var cands []cand
	for _, h := range b.live {
		lsm := tensor.LogSoftmaxRow(maskLogits(h.logits, sp.s, sp.i))
		for _, tok := range topTokens(lsm, sp.s.NumBeams) {
			cands = append(cands, cand{h, tok, h.logProb + lsm[tok]})
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].lp > cands[b].lp })
	if len(cands) > sp.s.NumBeams {
		cands = cands[:sp.s.NumBeams]
	}
	var next []*hypothesis
	for _, c := range cands {
		if c.tok == sp.s.StopToken {
			b.done = append(b.done, &hypothesis{tokens: append([]int(nil), c.parent.tokens...), logProb: c.lp})
			continue
		}
		nh := &hypothesis{
			st:      c.parent.st,
			tokens:  append(append([]int(nil), c.parent.tokens...), c.tok),
			logProb: c.lp,
		}
		if nh.st.Pos >= maxSeq {
			b.done = append(b.done, nh)
			continue
		}
		if c.parent.taken {
			nh.st = nh.st.Fork()
		}
		c.parent.taken = true
		next = append(next, nh)
	}
	b.live = next
}

func bestHyp(hs []*hypothesis) *hypothesis {
	var best *hypothesis
	for _, h := range hs {
		if best == nil || h.logProb > best.logProb {
			best = h
		}
	}
	return best
}

// topTokens returns the indices of the k largest log-probabilities.
func topTokens(lsm []float64, k int) []int {
	idx := make([]int, len(lsm))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return lsm[idx[a]] > lsm[idx[b]] })
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

// Result returns the generation accumulated so far; it is final once
// the decode is over.
func (sp *Stepper) Result() Result {
	return sp.res
}
