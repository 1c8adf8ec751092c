package model

import "fmt"

// A fault in sublayer s — one block's attention or its MLP, in forward
// order, LayerRef.Sublayer — cannot change anything a position computes
// below s: the residual entering s and the K/V rows of every block whose
// attention lies below s depend only on the tokens fed so far and on the
// clean weights below. A depth fork runs on that. It is a fork of a
// Prefix that recorded its residual stream (RecordDepth) in time, at a
// position pos, and in depth, at a sublayer from: rows below pos are the
// prefix's, as ForkInto's are, and while every token it is fed is the one
// the prefix was fed at that position, each pass starts at sublayer from
// with the recorded residual, reads the K/V rows and expert-trace entries
// of the blocks it skips from the prefix, and computes only sublayers
// from on. A weight fault forks at position 0, a transient one at the
// step it strikes. The first position whose token differs (or lies past
// the prefix) ends the matching for good: its pass, and every later one,
// computes every block, attending over the skipped blocks' shared rows
// below it and its own from there. Skipping is only ever an optimisation
// — a state that stops matching is still exact.

// planes are a depth record from position lo on: the residual row
// entering each sublayer s > 0 at every position p ≥ lo run
// (res[s-1], row p-lo, dModel wide) and the token fed there.
type planes struct {
	lo   int
	res  [][]float32
	toks []int
}

// covers reports whether the planes hold position pos (false for none).
func (pl *planes) covers(pos int) bool { return pl != nil && pos >= pl.lo }

// at is the residual row entering sublayer s at pos.
func (pl *planes) at(s, pos, d int) []float32 {
	i := pos - pl.lo
	return pl.res[s-1][i*d : (i+1)*d]
}

// tok is the token fed at pos.
func (pl *planes) tok(pos int) int { return pl.toks[pos-pl.lo] }

// below returns an exact copy of the recorded positions below pos.
func (pl *planes) below(pos, d int) *planes {
	n := max(pos-pl.lo, 0)
	out := &planes{lo: pl.lo, res: slab(len(pl.res), n*d), toks: append([]int(nil), pl.toks[:n]...)}
	for s, res := range pl.res {
		copy(out.res[s], res)
	}
	return out
}

// bytes is the size of the recorded rows and tokens.
func (pl *planes) bytes() int {
	n := len(pl.toks) * 8
	for _, res := range pl.res {
		n += len(res) * 4
	}
	return n
}

// RecordDepth makes the state record, at every position from lo on that
// it runs, the residual row entering each sublayer and the token it is
// fed; Snapshot keeps them in the Prefix for ForkDepth, which forks in
// depth at positions lo and up only. The state must not have run past lo:
// a fork of a prefix (ForkInto) records from its fork position on, since
// the rows it reads by reference all lie below, and Snapshot flattens
// them. A depth fork records nothing: its matched passes skip the
// sublayers it would record.
func (st *State) RecordDepth(lo int) {
	cfg := &st.m.Cfg
	if lo < st.Pos || st.from != 0 || lo > cfg.MaxSeq {
		panic(fmt.Sprintf("model: RecordDepth from %d on a state at %d (a depth fork: %v)", lo, st.Pos, st.from != 0))
	}
	rows := cfg.MaxSeq - lo
	st.rec = &planes{lo: lo, res: slab(2*cfg.NBlocks-1, rows*cfg.DModel), toks: make([]int, rows)}
}

// HasDepth reports whether the prefix's depth planes cover position pos:
// whether a fork there may skip in depth.
func (p *Prefix) HasDepth(pos int) bool { return p.depth.covers(pos) }

// ForkDepth is the fork in time and depth: dst (a fresh state when nil)
// becomes the state the prefix's source was at pos, as ForkInto makes it,
// bound to m2 — the prefix's model or a clone of the same architecture —
// and skips the sublayers below from while the tokens it is fed from pos
// on match the prefix's. Whatever dst held is forgotten, its own rows'
// allocation kept. from 0 skips nothing, a fork in time only; a from past
// 0 needs depth planes that cover pos (HasDepth).
func (p *Prefix) ForkDepth(m2 *Model, dst *State, pos, from int) *State {
	if from < 0 || from >= 2*len(p.kv[planeK]) || (from > 0 && !p.HasDepth(pos)) {
		panic(fmt.Sprintf("model: depth fork at position %d, sublayer %d of a prefix of %d blocks (depth planes cover it: %v)",
			pos, from, len(p.kv[planeK]), p.HasDepth(pos)))
	}
	dst = p.ForkInto(m2, dst, pos)
	dst.from = from
	return dst
}

// DepthMatched is the number of positions the state read from its
// prefix's depth planes instead of computing the sublayers below its
// fork's: 0 for every state but a depth fork.
func (st *State) DepthMatched() int { return st.matched }

// skipTo returns the sublayer the pass of position pos fed tok starts at:
// a depth fork's while the position extends its match with the prefix,
// 0 otherwise — and from then on, for good. The position a match extends
// is nb[0]: the fork sets it to its position, and each matched pass
// advances it with the rows of every block it skips, block 0's among
// them. A matched position's skipped blocks read their K/V row and trace
// entries from the prefix.
func (st *State) skipTo(pos, tok int) int {
	if st.from == 0 {
		return 0
	}
	p := st.base
	if pos != st.nb[0] || pos >= p.pos || tok != p.depth.tok(pos) {
		st.from = 0
		return 0
	}
	st.matched++
	for b := 0; 2*b < st.from; b++ {
		st.nb[b] = pos + 1
	}
	if st.ExpertTrace != nil {
		n := (pos + 1) * p.perPos
		for b := 0; 2*b+1 < st.from; b++ {
			st.ExpertTrace[b] = p.trace[b][:n:n]
		}
	}
	return st.from
}
