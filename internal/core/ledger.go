package core

import (
	"repro/internal/abft"
	"repro/internal/model"
)

// ledger is what a detect-only all-layer checker counted over one clean
// baseline inference: what a depth-forked trial under all-layer ABFT owes
// its Detection for the sublayers it did not compute.
// checks[s][p] and flags[s][p] are the checks and flags at sublayers
// below s and positions below p. Immutable once built.
type ledger struct {
	// tol is the Protection.Tol of the table the checks ran against.
	tol           float64
	checks, flags [][]int
}

// skipped is the number of checks below sublayer from over the n
// positions from fork on — what a trial forked there that read them from
// the baseline skipped.
func (l *ledger) skipped(from, fork, n int) int {
	return l.checks[from][fork+n] - l.checks[from][fork]
}

// lowestFlag is the lowest sublayer a clean check flagged at any
// position, or the sublayer count when none did.
func (l *ledger) lowestFlag() int {
	all := len(l.flags[0]) - 1
	for s := 1; s < len(l.flags); s++ {
		if l.flags[s][all] > 0 {
			return s - 1
		}
	}
	return len(l.flags) - 1
}

// ledgerChecker is the detect-only all-layer checker a baseline runs
// under when its campaign needs a ledger: it counts each check and flag
// at its (sublayer, position). Detect-only, it never changes an output,
// so the baseline it observes is the unchecked one. Rows checked at once
// are at distinct positions (model.Observers), so each writes only its
// own slots.
type ledgerChecker struct {
	inner         *abft.Checker
	checks, flags [][]int // [sublayer][position]
}

func newLedgerChecker(t *abft.Table, cfg *model.Config) *ledgerChecker {
	// An all-layer checker names no site the table could lack: no error.
	inner, _ := abft.Protection{AllLayers: true}.Checker(t)
	lc := &ledgerChecker{inner: inner}
	for range 2 * cfg.NBlocks {
		lc.checks = append(lc.checks, make([]int, cfg.MaxSeq))
		lc.flags = append(lc.flags, make([]int, cfg.MaxSeq))
	}
	return lc
}

func (lc *ledgerChecker) CheckLinear(ref model.LayerRef, pos int, w model.Weight, in, out []float32) {
	checked, flagged := lc.inner.Check(ref, pos, w, in, out)
	if s := ref.Sublayer(); s >= 0 {
		if checked {
			lc.checks[s][pos]++
		}
		if flagged {
			lc.flags[s][pos]++
		}
	}
}

// ledger sums the counts of the first n positions into a ledger.
func (lc *ledgerChecker) ledger(tol float64, n int) *ledger {
	cumulative := func(raw [][]int) [][]int {
		out := make([][]int, len(raw)+1)
		out[0] = make([]int, n+1)
		for s, row := range raw {
			out[s+1] = make([]int, n+1)
			for p, v := range row[:n] {
				out[s+1][p+1] = out[s][p+1] + out[s+1][p] - out[s][p] + v
			}
		}
		return out
	}
	return &ledger{tol: tol, checks: cumulative(lc.checks), flags: cumulative(lc.flags)}
}
