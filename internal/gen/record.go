package gen

import (
	"slices"

	"repro/internal/faults"
	"repro/internal/model"
)

// Record is a prompt's clean inference, which a faulty run of the prompt
// enters where its fault can first reach (Fork): a campaign's baseline
// instance, a serving engine's cached prompt. A greedy record holds the
// snapshot of the state its decode finished on and one Resume per step; a
// beam search's, the post-prompt snapshot and Logits, the logits after the
// prompt's last token. Immutable; any number of runs fork it at once.
type Record struct {
	Prefix *model.Prefix
	Resume []Resume
	Tokens []int
	Logits []float32
	// Ledger, when non-nil, is what a detect-only all-layer checker
	// counted over the positions the record computed.
	Ledger *Ledger
	maxNew int
}

// Checker is a linear-layer checker reporting its verdicts on a run of
// rows (abft.Checker): whether it checked them, and each checked row's
// verdict in flagged[pos[i]], a buffer indexed by position.
type Checker interface {
	Check(ref model.LayerRef, w model.Weight, pos []int, in, out []float32, flagged []bool) (checked bool)
}

// RecordOpts asks NewRecord for a ledger: the inference runs under
// Ledger, an all-layer detect-only checker over a table summed under Tol.
type RecordOpts struct {
	Ledger Checker
	Tol    float64
}

// NewRecord runs prompt's clean inference under s on st, a state of m
// holding prompt's first st.Pos tokens, and records it: the rest of the
// prompt is prefilled and decoded greedily, or by beam search when
// s.NumBeams > 1. The snapshot keeps what st records (depth planes, an
// expert trace). A ledger's checker is installed on st, beside the hooks
// it carries, for the prefill and decode; detect-only, it changes no
// output. st is left where the decode finished.
func NewRecord(m *model.Model, st *model.State, prompt []int, s Settings, opts RecordOpts) (*Record, Result) {
	var lc *ledgerChecker
	if opts.Ledger != nil {
		lc = &ledgerChecker{inner: opts.Ledger, flag: make([]int, m.Cfg.MaxSeq), flagged: make([]bool, m.Cfg.MaxSeq)}
		for range 2 * m.Cfg.NBlocks {
			lc.checks = append(lc.checks, make([]int, m.Cfg.MaxSeq))
		}
		st.Checker = lc
	}
	logits := st.Prefill(prompt[st.Pos:])
	r := &Record{maxNew: s.MaxNewTokens}
	var res Result
	if s.NumBeams > 1 {
		r.Prefix, r.Logits = st.Snapshot(), slices.Clone(logits)
		res = GenerateFrom(m, st, logits, s)
	} else {
		res, r.Resume = ResumableGreedy(m, st, logits, s)
		r.Prefix, r.Tokens = st.Snapshot(), res.Tokens
	}
	if lc != nil {
		r.Ledger = lc.ledger(opts.Tol, len(prompt), r.Prefix.Pos())
	}
	return r, res
}

// Watch is what rides a faulty run besides its fault, as the fork rule
// sees it. PromptLive: the fault is live in the prompt (a weight strike
// armed before the prefill). Counted: an observer counts clean work (an
// ABFT checker's checks, a mitigation's counters, a probe's
// comparisons). Whole: the run computes every layer, as one an observer
// watches whole must (a probe, a mitigation hook). Checker: an ABFT
// checker over a table summed under Tol, on every layer under AllLayers.
type Watch struct {
	MaxNew                     int
	PromptLive, Counted, Whole bool
	Checker, AllLayers         bool
	Tol                        float64
}

// Fork is where a run enters a Record: its Prefix, at the prompt's first
// position (Prompt) or at a resume point (At), and at sublayer Depth of
// each step whose tokens match the record's (model.Prefix.ForkDepth; -1:
// none). Pos is the position the Prefix is forked at.
type Fork struct {
	From       *model.Prefix
	Prompt     bool
	At         Resume
	Pos, Depth int
}

// Fork is the one fork rule. Every step before the first one site can
// reach (faults.Reach) is bit for bit the record's, so a run starts there,
// bounded by the first step the ledger saw flag when a checker rides the
// run (step 0 without a ledger under its tolerance) and by the last point
// its budget shares with the record's (Resume.Rebudget). A fault live in
// the prompt starts at its first position, a run whose clean work is
// counted at resume point 0. In depth, a run no observer watches whole
// starts each matching step at its site's sublayer where the planes cover
// its fork position, capped under an all-layer checker by the ledger's
// lowest flag. A beam record's runs never fork in time or depth.
func (r *Record) Fork(site faults.Site, w Watch) Fork {
	f := Fork{From: r.Prefix, Prompt: w.PromptLive, Depth: -1}
	if r.Resume == nil {
		return f
	}
	ledger := r.Ledger
	if ledger != nil && ledger.tol != w.Tol {
		ledger = nil
	}
	if !f.Prompt {
		g := 0
		if !w.Counted {
			g = min(faults.Reach(site, r.Tokens), len(r.Resume)-1, min(w.MaxNew, r.maxNew)-1)
		}
		if w.Checker && ledger == nil {
			g = 0
		} else if w.Checker {
			g = min(g, ledger.first)
		}
		f.At = r.Resume[max(g, 0)]
		if w.MaxNew != r.maxNew {
			f.At = f.At.Rebudget(w.MaxNew)
		}
		f.Pos = f.At.pos
	}
	if w.Whole || !r.Prefix.HasDepth(f.Pos) || (w.AllLayers && ledger == nil) {
		return f
	}
	f.Depth = site.Layer.Sublayer()
	if w.AllLayers {
		f.Depth = min(f.Depth, ledger.lowest)
	}
	return f
}

// Ledger is what a detect-only all-layer checker counted over a record's
// inference under tolerance tol: the checks by (sublayer, position), the
// lowest sublayer one flagged at and the first decode step one flagged at
// (their counts when none did).
type Ledger struct {
	tol           float64
	checks        [][]int
	lowest, first int
}

// Skipped is the number of checks below sublayer from over the n
// positions from fork on: what a run forked there skipped.
func (l *Ledger) Skipped(from, fork, n int) int {
	sum := 0
	for _, row := range l.checks[:from] {
		for _, v := range row[fork : fork+n] {
			sum += v
		}
	}
	return sum
}

// ledgerChecker counts inner's checks by (sublayer, position), and at
// each position one more than the lowest sublayer flagged there; flagged
// is inner's verdicts by position. Rows checked at once are at distinct
// positions (model.Observers), so each writes only its own slots.
type ledgerChecker struct {
	inner   Checker
	checks  [][]int
	flag    []int
	flagged []bool
}

func (lc *ledgerChecker) CheckLinear(ref model.LayerRef, w model.Weight, pos []int, in, out []float32) {
	s := ref.Sublayer()
	if !lc.inner.Check(ref, w, pos, in, out, lc.flagged) || s < 0 {
		return
	}
	for _, p := range pos {
		lc.checks[s][p]++
		if lc.flagged[p] && (lc.flag[p] == 0 || s < lc.flag[p]-1) {
			lc.flag[p] = s + 1
		}
	}
}

// ledger keeps the counts of the first n positions, of which the first
// prompt are the prompt's, in a Ledger.
func (lc *ledgerChecker) ledger(tol float64, prompt, n int) *Ledger {
	l := &Ledger{tol: tol, lowest: len(lc.checks), first: n - prompt}
	for _, row := range lc.checks {
		l.checks = append(l.checks, slices.Clone(row[:n]))
	}
	for p, f := range lc.flag[:n] {
		if f > 0 {
			l.lowest = min(l.lowest, f-1)
			if p >= prompt {
				l.first = min(l.first, p-prompt)
			}
		}
	}
	return l
}
