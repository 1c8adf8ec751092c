// Package gen implements the decoding strategies studied in §4.3:
// deterministic greedy search, beam search with configurable width, and
// sequence option scoring for multiple-choice evaluation. Sampling is
// deliberately absent — the paper disables it (§3.3.4) so that the
// fault-free and fault-injected runs visit identical computation.
package gen

import (
	"math"
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/token"
)

// Settings controls one generation call. The zero value is not useful;
// start from Defaults.
type Settings struct {
	// MaxNewTokens bounds the generated sequence length.
	MaxNewTokens int
	// NumBeams selects greedy search (1) or beam search (>1), mirroring
	// HuggingFace generate(num_beams=...).
	NumBeams int
	// StopToken ends generation when produced (normally token.EOS).
	StopToken int
	// BanSpecials forbids PAD/BOS/UNK from being generated, keeping
	// corrupted outputs printable without changing the argmax dynamics of
	// real tokens.
	BanSpecials bool
	// MinNewTokens suppresses StopToken for the first MinNewTokens steps.
	MinNewTokens int
}

// Defaults returns the paper's default generation settings: greedy
// decoding with an EOS stop.
func Defaults(maxNew int) Settings {
	return Settings{
		MaxNewTokens: maxNew,
		NumBeams:     1,
		StopToken:    token.EOS,
		BanSpecials:  true,
	}
}

// Result is a completed generation.
type Result struct {
	// Tokens are the generated ids, excluding the prompt and excluding the
	// stop token.
	Tokens []int
	// LogProb is the cumulative log-probability of the returned sequence
	// under the model (including the stop token when one was produced).
	LogProb float64
	// Stopped reports whether generation ended on StopToken (vs. running
	// into MaxNewTokens).
	Stopped bool
	// Steps is the number of decode steps performed across all beams —
	// the runtime-cost proxy reported in Figure 19.
	Steps int
}

// Generate decodes from m after the given prompt. It dispatches on
// NumBeams. The model's registered hooks (fault injectors, tracers) fire
// during both prefill and generation.
func Generate(m *model.Model, prompt []int, s Settings) Result {
	if s.NumBeams <= 1 {
		return greedy(m, prompt, s)
	}
	return beam(m, prompt, s)
}

// GenerateFrom decodes from an already-prefilled state whose last logits
// are given — the prefix-cache entry point. The caller keeps ownership of
// logits; pass a private copy when the backing slice must survive (both
// strategies mask it in place). Steps counts only the continuation, so
// reused-prefix trials do not recount prompt positions they never ran.
func GenerateFrom(m *model.Model, st *model.State, logits []float32, s Settings) Result {
	if s.NumBeams <= 1 {
		return ContinueGreedy(m, st, logits, s)
	}
	return ContinueBeam(m, st, logits, s)
}

// maskLogits applies the settings' token bans in place and returns the
// possibly-modified slice.
func maskLogits(logits []float32, s Settings, step int) []float32 {
	ninf := float32(math.Inf(-1))
	if s.BanSpecials {
		logits[token.PAD] = ninf
		logits[token.BOS] = ninf
		logits[token.UNK] = ninf
	}
	if step < s.MinNewTokens {
		logits[s.StopToken] = ninf
	}
	return logits
}

func greedy(m *model.Model, prompt []int, s Settings) Result {
	st := m.NewState()
	logits := st.Prefill(prompt)
	res := ContinueGreedy(m, st, logits, s)
	res.Steps += len(prompt)
	return res
}

// ContinueGreedy decodes greedily from an already-prefilled state whose
// last logits are given. Callers that need a custom state (e.g. with
// expert tracing enabled) prefill themselves and hand over here. The
// returned Steps counts only the continuation.
func ContinueGreedy(m *model.Model, st *model.State, logits []float32, s Settings) Result {
	res, _ := continueGreedy(m, st, logits, s, false)
	return res
}

// Resume is one point a finished greedy decode can be re-entered at: the
// Stepper as it stood after choosing a token, the token it queued, and
// the position that token decodes at. Together with a snapshot of the
// state the decode finished on — whose KV rows below pos are the state at
// pos, because decoding only appends (model.State.ForkAtInto) — it is
// everything Loop.AdmitFork needs to run the decode's remaining steps and
// nothing before them. A Resume is immutable and may be admitted any number of
// times, concurrently.
type Resume struct {
	sp   Stepper
	tok  int
	pos  int
	live bool // the decode went on to step tok; false at its last point
}

// ResumableGreedy is ContinueGreedy that also returns one Resume per
// Stepper.Next call: point g follows the choice of generated token g,
// point 0 being taken off the given logits with st as prefilled, and the
// last is where the decode ended. It leaves st on the state the decode
// finished on, which the caller snapshots to fork from.
func ResumableGreedy(m *model.Model, st *model.State, logits []float32, s Settings) (Result, []Resume) {
	return continueGreedy(m, st, logits, s, true)
}

func continueGreedy(m *model.Model, st *model.State, logits []float32, s Settings, record bool) (Result, []Resume) {
	sp := NewStepper(s)
	var points []Resume
	for {
		pos := st.Pos
		tok, step := sp.Next(logits, pos, m.Cfg.MaxSeq)
		if record {
			at := Resume{sp: *sp, tok: tok, pos: pos, live: step}
			// Capacity clipped to length: the decode appends on into the
			// shared backing array, and a resumed sequence's first append
			// must copy rather than write beside it.
			at.sp.res.Tokens = slices.Clip(at.sp.res.Tokens)
			points = append(points, at)
		}
		if !step {
			break
		}
		logits = st.DecodeStep(tok)
	}
	return sp.Result(), points
}

// hypothesis is one live beam.
type hypothesis struct {
	st      *model.State
	tokens  []int
	logProb float64
	logits  []float32
}

func beam(m *model.Model, prompt []int, s Settings) Result {
	st := m.NewState()
	logits := st.Prefill(prompt)
	res := ContinueBeam(m, st, logits, s)
	res.Steps += len(prompt)
	return res
}

// ContinueBeam runs beam search from an already-prefilled state whose
// last logits are given. The returned Steps counts only the continuation.
func ContinueBeam(m *model.Model, st *model.State, logits []float32, s Settings) Result {
	first := &hypothesis{st: st, logits: append([]float32(nil), logits...)}
	live := []*hypothesis{first}
	var done []*hypothesis
	steps := 0

	for i := 0; i < s.MaxNewTokens && len(live) > 0; i++ {
		type cand struct {
			parent *hypothesis
			tok    int
			lp     float64
		}
		var cands []cand
		for _, h := range live {
			masked := maskLogits(h.logits, s, i)
			lsm := tensor.LogSoftmaxRow(masked)
			for _, tok := range topTokens(lsm, s.NumBeams) {
				cands = append(cands, cand{h, tok, h.logProb + lsm[tok]})
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].lp > cands[b].lp })
		if len(cands) > s.NumBeams {
			cands = cands[:s.NumBeams]
		}

		// Pre-fork: a parent whose state is needed by several surviving
		// candidates must be copied before the first candidate advances it.
		counts := make(map[*hypothesis]int)
		for _, c := range cands {
			if c.tok != s.StopToken {
				counts[c.parent]++
			}
		}
		forks := make(map[*hypothesis][]*model.State)
		for parent, n := range counts {
			for j := 1; j < n; j++ {
				forks[parent] = append(forks[parent], parent.st.Fork())
			}
		}

		var next []*hypothesis
		used := make(map[*hypothesis]bool)
		for _, c := range cands {
			if c.tok == s.StopToken {
				done = append(done, &hypothesis{
					tokens:  append([]int(nil), c.parent.tokens...),
					logProb: c.lp,
				})
				continue
			}
			var hst *model.State
			if !used[c.parent] {
				hst = c.parent.st
				used[c.parent] = true
			} else {
				f := forks[c.parent]
				hst, forks[c.parent] = f[len(f)-1], f[:len(f)-1]
			}
			nh := &hypothesis{
				st:      hst,
				tokens:  append(append([]int(nil), c.parent.tokens...), c.tok),
				logProb: c.lp,
			}
			if hst.Pos < m.Cfg.MaxSeq {
				nh.logits = append(nh.logits[:0], hst.DecodeStep(c.tok)...)
				steps++
				next = append(next, nh)
			} else {
				done = append(done, nh)
			}
			if len(next) == s.NumBeams {
				break
			}
		}
		live = next
		// Early exit: if the best finished hypothesis already beats every
		// live one, no live beam can overtake it (log-probs only decrease).
		if best := bestHyp(done); best != nil && len(live) > 0 {
			allWorse := true
			for _, h := range live {
				if h.logProb > best.logProb {
					allWorse = false
					break
				}
			}
			if allWorse {
				live = nil
			}
		}
	}
	done = append(done, live...)
	best := bestHyp(done)
	if best == nil {
		return Result{Steps: steps}
	}
	return Result{
		Tokens:  best.tokens,
		LogProb: best.logProb,
		Stopped: best.st == nil, // finished hypotheses carry no state
		Steps:   steps,
	}
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

// ScoreOption returns the total log-likelihood of option continuing
// prompt — the multiple-choice scoring rule of §3.3.2 (the model scores
// each option and the highest wins).
func ScoreOption(m *model.Model, prompt, option []int) float64 {
	st := m.NewState()
	logits := st.Prefill(prompt)
	var total float64
	for _, tok := range option {
		lsm := tensor.LogSoftmaxRow(logits)
		total += lsm[tok]
		if st.Pos >= m.Cfg.MaxSeq {
			break
		}
		logits = st.DecodeStep(tok)
	}
	return total
}

// ChooseOption scores every option and returns the index of the best one
// together with all scores. Ties break toward the lower index.
func ChooseOption(m *model.Model, prompt []int, options [][]int) (int, []float64) {
	scores := make([]float64, len(options))
	best := 0
	for i, opt := range options {
		scores[i] = ScoreOption(m, prompt, opt)
		if scores[i] > scores[best] {
			best = i
		}
	}
	return best, scores
}
