// Package gen implements the decoding strategies studied in §4.3:
// deterministic greedy search, beam search with configurable width, and
// sequence option scoring for multiple-choice evaluation. Sampling is
// deliberately absent — the paper disables it (§3.3.4) so that the
// fault-free and fault-injected runs visit identical computation.
package gen

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/model"
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

// Generate prefills prompt on a fresh state of m and decodes from it
// (GenerateFrom). The model's registered hooks (fault injectors, tracers)
// fire during both prefill and generation, and Steps counts the prompt's
// positions too.
func Generate(m *model.Model, prompt []int, s Settings) Result {
	st := m.NewState()
	res := GenerateFrom(m, st, st.Prefill(prompt), s)
	res.Steps += len(prompt)
	return res
}

// GenerateFrom decodes from an already-prefilled state whose last logits
// are given — greedy, or beam search when s.NumBeams > 1 — on the serial
// loop. The caller keeps ownership of logits; pass a private copy when
// the backing slice must survive (a greedy decode masks it in place).
// Steps counts only the continuation, so reused-prefix trials do not
// recount prompt positions they never ran.
func GenerateFrom(m *model.Model, st *model.State, logits []float32, s Settings) Result {
	sp := NewStepper(s)
	serial(m, st, logits, &sp, false)
	return sp.Result()
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
	g    int  // the point's index: the step it follows is generated token g's choice
	live bool // the decode went on to step tok; false at its last point
}

// Rebudget returns the point as it stands in the same greedy decode under
// a budget of maxNew new tokens. Point g of a decode with budget N is that
// point under budget M whenever g < min(M, N): the budget is consulted
// only before a token is chosen, and every choice up to g was made under
// both budgets, so the Stepper differs in its budget alone — whether the
// decode steps g's token turns on the stop token and the context, not on
// the budget. A point at or past min(M, N) may not exist under the other
// budget, or chose a token that budget forbids: it panics.
func (r Resume) Rebudget(maxNew int) Resume {
	if r.g >= min(maxNew, r.sp.s.MaxNewTokens) {
		panic(fmt.Sprintf("gen: point %d of a %d-token decode rebudgeted to %d tokens", r.g, r.sp.s.MaxNewTokens, maxNew))
	}
	r.sp.s.MaxNewTokens = maxNew
	return r
}

// ResumableGreedy is a greedy GenerateFrom that also returns one Resume
// per Stepper step: point g follows the choice of generated token g,
// point 0 being taken off the given logits with st as prefilled, and the
// last is where the decode ended. It leaves st on the state the decode
// finished on, which the caller snapshots to fork from.
func ResumableGreedy(m *model.Model, st *model.State, logits []float32, s Settings) (Result, []Resume) {
	sp := NewStepper(s)
	points := serial(m, st, logits, &sp, true)
	return sp.Result(), points
}

// serial is the one serial decode loop: it feeds sp st's last logits, then
// each DecodeStep's of the token sp chose on the state it chose, until sp
// stops. With record it returns one Resume per step (ResumableGreedy).
func serial(m *model.Model, st *model.State, logits []float32, sp *Stepper, record bool) []Resume {
	var points []Resume
	for {
		pos := st.Pos
		var tok int
		var step bool
		st, tok, step = sp.step(st, logits, m.Cfg.MaxSeq)
		if record {
			at := Resume{sp: *sp, tok: tok, pos: pos, g: len(points), live: step}
			// Capacity clipped to length: the decode appends on into the
			// shared backing array, and a resumed sequence's first append
			// must copy rather than write beside it.
			at.sp.res.Tokens = slices.Clip(at.sp.res.Tokens)
			points = append(points, at)
		}
		if !step {
			return points
		}
		logits = st.DecodeStep(tok)
	}
}

// ScoreOption returns the total log-likelihood of option continuing
// prompt — the multiple-choice scoring rule of §3.3.2 (the model scores
// each option and the highest wins): a prefill of prompt and the serial
// loop over Scorer(option), which steps the option's last token too.
func ScoreOption(m *model.Model, prompt, option []int) float64 {
	st := m.NewState()
	sp := Scorer(option)
	serial(m, st, st.Prefill(prompt), &sp, false)
	return sp.Result().LogProb
}

// ChooseOption scores every option and returns the one Choose picks
// together with all scores.
func ChooseOption(m *model.Model, prompt []int, options [][]int) (int, []float64) {
	scores := make([]float64, len(options))
	for i, opt := range options {
		scores[i] = ScoreOption(m, prompt, opt)
	}
	return Choose(scores), scores
}

// Choose returns the index of the highest score; ties break toward the
// lower index. No comparison with NaN holds, so a NaN score wins at index
// 0 — every later score is compared against it and none is greater — and
// never wins anywhere else: a fault that drives option 0's score to NaN
// picks option 0.
func Choose(scores []float64) int {
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	return best
}
