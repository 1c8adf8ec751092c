package mitigate

import "fmt"

// Policy selects the online ABFT response escalation applied when a
// checksum check flags a linear-layer output (internal/abft). The levels
// form a strict ladder: each adds one recovery step on top of the last.
type Policy int

const (
	// PolicyDetect records the violation and leaves the output untouched —
	// the measurement mode: recall and false-positive rates are observable
	// without perturbing outcome classification.
	PolicyDetect Policy = iota
	// PolicyCorrect recomputes the flagged output from its input. A
	// transient computational fault is gone on recomputation (the upset
	// struck one GEMM execution), so the fresh pass verifies clean and
	// replaces the corrupted row bit-exactly. If the recomputation still
	// fails — persistent corruption, e.g. a resident weight fault — the
	// corrupted output is left in place.
	PolicyCorrect
	// PolicyCorrectOrSkip recomputes like PolicyCorrect and, when the
	// recomputation also fails, zeroes the output row: the transformer's
	// residual stream then carries the activation past the broken layer
	// unchanged (layer skipping), trading one layer's contribution for
	// containment of an arbitrarily large corruption.
	PolicyCorrectOrSkip
)

// String renders the policy as its flag spelling.
func (p Policy) String() string {
	switch p {
	case PolicyDetect:
		return "detect"
	case PolicyCorrect:
		return "correct"
	case PolicyCorrectOrSkip:
		return "correct-skip"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "detect":
		return PolicyDetect, nil
	case "correct":
		return PolicyCorrect, nil
	case "correct-skip":
		return PolicyCorrectOrSkip, nil
	default:
		return 0, fmt.Errorf("mitigate: unknown policy %q (want detect, correct, or correct-skip)", s)
	}
}

// Action is the response actually taken to one flagged output.
type Action int

const (
	// ActionDetect: flagged, output left untouched (detect-only policy, or
	// a correcting policy whose recomputation did not verify).
	ActionDetect Action = iota
	// ActionCorrect: recomputation verified clean and replaced the output.
	ActionCorrect
	// ActionSkip: recomputation still failed; the output was zeroed.
	ActionSkip
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionDetect:
		return "detect"
	case ActionCorrect:
		return "correct"
	case ActionSkip:
		return "skip"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Respond executes the detect → recompute-correct → fallback-skip
// escalation on a flagged linear output and returns the action taken.
// recompute must run a fresh forward pass of the layer into its argument
// (len(out) elements, distinct from out); verify must report whether a
// candidate output passes the same check that flagged out. scratch is
// caller-owned recomputation space so per-check responses do not allocate.
// A nil recompute says the recomputation would reproduce out bit for bit
// (nothing but the layer's product wrote it), so it would fail verify as
// out did: the escalation goes straight to its fallback.
func Respond(p Policy, out, scratch []float32, recompute func(dst []float32), verify func(cand []float32) bool) Action {
	if p == PolicyDetect {
		return ActionDetect
	}
	if recompute != nil {
		recompute(scratch)
		if verify(scratch) {
			copy(out, scratch)
			return ActionCorrect
		}
	}
	if p == PolicyCorrectOrSkip {
		for i := range out {
			out[i] = 0
		}
		return ActionSkip
	}
	return ActionDetect
}
