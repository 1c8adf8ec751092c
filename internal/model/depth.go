package model

import "fmt"

// A weight fault in sublayer s — one block's attention or its MLP, in
// forward order, LayerRef.Sublayer — cannot change anything a position
// computes below s: the residual entering s and the K/V rows of every
// block whose attention lies below s depend only on the tokens fed so far
// and on the clean weights below. A depth fork runs on that. It is a
// state at position 0 over a Prefix that recorded its residual stream
// (RecordDepth) and, while every token it is fed is the one the prefix
// was fed at that position, each pass starts at sublayer from with the
// recorded residual, reads the K/V rows and expert-trace entries of the
// blocks it skips from the prefix, and computes only sublayers from on.
// The first position whose token differs (or lies past the prefix) ends
// the matching for good: its pass, and every later one, computes every
// block, attending over the skipped blocks' shared rows below it and its
// own from there. Skipping is only ever an optimisation — a state that
// stops matching is still exact.

// planes are a depth record: the residual row entering each sublayer
// s > 0 at every position run (res[s-1], rows × dModel) and the token fed
// there.
type planes struct {
	res  [][]float32
	toks []int
}

// at is the residual row entering sublayer s at pos.
func (pl *planes) at(s, pos, d int) []float32 { return pl.res[s-1][pos*d : (pos+1)*d] }

// below returns an exact copy of the first pos positions.
func (pl *planes) below(pos, d int) *planes {
	out := &planes{res: slab(len(pl.res), pos*d), toks: append([]int(nil), pl.toks[:pos]...)}
	for s, res := range pl.res {
		copy(out.res[s], res)
	}
	return out
}

// RecordDepth makes the state record, at every position it runs, the
// residual row entering each sublayer and the token it is fed; Snapshot
// keeps them in the Prefix for ForkDepth. It must be called on a state at
// position 0 that reads no prefix.
func (st *State) RecordDepth() {
	if st.Pos != 0 || st.base != nil {
		panic("model: RecordDepth on a state that has run or reads a prefix")
	}
	cfg := &st.m.Cfg
	st.rec = &planes{res: slab(2*cfg.NBlocks-1, cfg.MaxSeq*cfg.DModel), toks: make([]int, cfg.MaxSeq)}
}

// HasDepth reports whether the prefix holds depth planes to fork from.
func (p *Prefix) HasDepth() bool { return p.depth != nil }

// ForkDepth is the fork in depth: dst (a fresh state when nil) becomes a
// state at position 0 bound to m2 — the prefix's model or a clone of the
// same architecture — that skips the sublayers below from while the tokens
// it is fed match the prefix's. Whatever dst held is forgotten, its own
// rows' allocation kept. from 0 skips nothing; a from past 0 needs a
// prefix with depth planes.
func (p *Prefix) ForkDepth(m2 *Model, dst *State, from int) *State {
	if from < 0 || from >= 2*len(p.kv[planeK]) || (from > 0 && p.depth == nil) {
		panic(fmt.Sprintf("model: depth fork at sublayer %d of a prefix of %d blocks (depth planes %v)",
			from, len(p.kv[planeK]), p.depth != nil))
	}
	dst = p.ForkInto(m2, dst, 0)
	dst.from = from
	return dst
}

// DepthMatched is the number of positions the state read from its
// prefix's depth planes instead of computing the sublayers below its
// fork's: 0 for every state but a depth fork.
func (st *State) DepthMatched() int { return st.matched }

// skipTo returns the sublayer the pass of position pos fed tok starts at:
// a depth fork's while the position extends its match with the prefix,
// 0 otherwise — and from then on, for good. A matched position's skipped
// blocks read their K/V row and trace entries from the prefix.
func (st *State) skipTo(pos, tok int) int {
	if st.from == 0 {
		return 0
	}
	p := st.base
	if pos != st.matched || pos >= p.pos || tok != p.depth.toks[pos] {
		st.from = 0
		return 0
	}
	st.matched++
	for b := 0; 2*b < st.from; b++ {
		st.nb[b] = st.matched
	}
	if st.ExpertTrace != nil {
		n := st.matched * p.perPos
		for b := 0; 2*b+1 < st.from; b++ {
			st.ExpertTrace[b] = p.trace[b][:n:n]
		}
	}
	return st.from
}
