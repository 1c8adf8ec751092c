package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// A State's KV cache is held in two pieces. Positions [0, nb) are rows of
// base, a Prefix shared by reference with every other fork of it and never
// written; positions [nb, Pos) are the state's own, position p at row
// p-nb of own[plane][block] (DModel-wide head-major rows). NewState has no
// base and owns MaxSeq rows up front; a Prefix.ForkInto state owns only
// the rows it appends, grown on demand and kept when the state is
// recycled. Decoding only appends, so nothing below nb is ever written —
// except by a KV-cache strike, which first makes the shared rows private
// (SetKV).

// The two planes of a KV cache.
const (
	planeK = iota
	planeV
)

// Prefix is an immutable KV cache: the first Pos rows of the state it was
// snapshotted from, with its expert trace. Nothing aliases a live state
// and no method writes it, so any number of goroutines may fork from and
// attend over one Prefix with no writer rule to follow: it needs only to
// be published the way any value is (a channel, a mutex, a WaitGroup).
type Prefix struct {
	dModel, maxSeq int
	pos            int
	kv             [2][][]float32 // [plane][block], pos × dModel
	trace          [][]int        // per block, nil when the state did not trace
	perPos         int            // trace entries a routed position appends
}

// Pos is the number of positions the prefix holds.
func (p *Prefix) Pos() int { return p.pos }

// Bytes is the size of the prefix's cached rows, what a budget over
// prefixes counts.
func (p *Prefix) Bytes() int { return 2 * len(p.kv[planeK]) * p.pos * p.dModel * 4 }

// Snapshot returns an exact copy of the state's first Pos rows and its
// expert trace as an immutable Prefix.
func (st *State) Snapshot() *Prefix {
	cfg := &st.m.Cfg
	p := &Prefix{dModel: cfg.DModel, maxSeq: cfg.MaxSeq, pos: st.Pos, perPos: min(cfg.TopK, cfg.NumExperts)}
	shared, own := st.nb*cfg.DModel, (st.Pos-st.nb)*cfg.DModel
	for pl := range p.kv {
		p.kv[pl] = make([][]float32, cfg.NBlocks)
		for b := range p.kv[pl] {
			rows := make([]float32, shared+own)
			if shared > 0 {
				copy(rows, st.base.kv[pl][b][:shared])
			}
			copy(rows[shared:], st.own[pl][b][:own])
			p.kv[pl][b] = rows
		}
	}
	if st.ExpertTrace != nil {
		p.trace = make([][]int, len(st.ExpertTrace))
		for b, tr := range st.ExpertTrace {
			p.trace[b] = slices.Clone(tr)
		}
	}
	return p
}

// ForkInto is the O(1) fork: dst (a fresh state when nil) becomes the
// state the prefix's source was when its cursor stood at pos, bound to m2
// — the source's model or a clone of the same architecture. dst reads
// rows below pos from the prefix and appends its own after them, so
// Prefill, DecodeStep and Batch.Step run on it unchanged; whatever dst
// held is forgotten, its own rows' allocation kept for the rows to come.
// That rows below pos are the state at pos is ForkAtInto's argument.
func (p *Prefix) ForkInto(m2 *Model, dst *State, pos int) *State {
	if m2.Cfg.DModel != p.dModel || m2.Cfg.NBlocks != len(p.kv[planeK]) || m2.Cfg.MaxSeq != p.maxSeq {
		panic("model: fork across different architectures")
	}
	if pos < 0 || pos > p.pos {
		panic(fmt.Sprintf("model: fork at position %d of a prefix of %d", pos, p.pos))
	}
	if dst == nil {
		dst = m2.newState(0)
	}
	dst.m = m2
	dst.base, dst.nb, dst.Pos = p, pos, pos
	dst.ExpertTrace = traceBelow(p.trace, p.perPos, p.pos, pos)
	return dst
}

// traceBelow returns the entries of an expert trace recorded over have
// positions that belong to positions below pos. Every routed position
// appends the same perPos selections, so a trace that does not divide
// evenly (tracing enabled mid-run, a NaN router row) has no positional
// prefix to take. The result shares tr's arrays with capacity clipped to
// length: entries are written once and never again, and the fork's first
// append copies.
func traceBelow(tr [][]int, perPos, have, pos int) [][]int {
	if tr == nil {
		return nil
	}
	out := make([][]int, len(tr))
	for b, t := range tr {
		n := len(t)
		if pos != have {
			if n != have*perPos && n != 0 {
				panic("model: positional fork of a non-uniform expert trace")
			}
			n = min(n, pos*perPos)
		}
		out[b] = t[:n:n]
	}
	return out
}

// reserve makes room for rows own rows per plane, keeping the first keep.
// Capacity doubles, so a decode that appends a row per step reallocates
// O(log n) times.
func (st *State) reserve(rows, keep int) {
	if rows <= st.rows {
		return
	}
	cfg := &st.m.Cfg
	rows = min(max(rows, 2*st.rows, 16), cfg.MaxSeq)
	for pl := range st.own {
		for b, old := range st.own[pl] {
			st.own[pl][b] = make([]float32, rows*cfg.DModel)
			copy(st.own[pl][b], old[:keep*cfg.DModel])
		}
	}
	st.rows = rows
}

// reserveNext makes room for n more positions after the cursor.
func (st *State) reserveNext(n int) {
	st.reserve(st.Pos+n-st.nb, st.Pos-st.nb)
}

// appendKV stores the key and value rows of position pos, which
// reserveNext has made room for.
func (st *State) appendKV(b, pos int, k, v []float32) {
	d := st.m.Cfg.DModel
	at := (pos - st.nb) * d
	copy(st.own[planeK][b][at:at+d], k)
	copy(st.own[planeV][b][at:at+d], v)
}

// privatize copies the shared rows into the state's own, below the rows
// it has appended: the state stops reading its base.
func (st *State) privatize() {
	if st.nb == 0 {
		return
	}
	d := st.m.Cfg.DModel
	own := st.Pos - st.nb
	st.reserve(st.Pos, own)
	shared := st.nb * d
	for pl := range st.own {
		for b, rows := range st.own[pl] {
			copy(rows[shared:], rows[:own*d])
			copy(rows, st.base.kv[pl][b][:shared])
		}
	}
	st.base, st.nb = nil, 0
}

// kvPlane returns the plane and element index of one cached scalar, or
// ok false when ref does not name a block's key or value cache or
// (pos, col) lies outside what the state holds.
func (st *State) kvPlane(ref LayerRef, pos, col int) (plane []float32, i int, ok bool) {
	d := st.m.Cfg.DModel
	pl := planeK
	if ref.Kind == KindV {
		pl = planeV
	} else if ref.Kind != KindK {
		return nil, 0, false
	}
	if ref.Block < 0 || ref.Block >= len(st.own[pl]) || pos < 0 || pos >= st.Pos || col < 0 || col >= d {
		return nil, 0, false
	}
	if pos < st.nb {
		return st.base.kv[pl][ref.Block], pos*d + col, true
	}
	return st.own[pl][ref.Block], (pos-st.nb)*d + col, true
}

// KVAt reads one cached scalar: column col of position pos's key
// (ref.Kind == KindK) or value (KindV) row in block ref.Block. ok is false
// when ref, pos or col is out of the state's range.
func (st *State) KVAt(ref LayerRef, pos, col int) (v float32, ok bool) {
	plane, i, ok := st.kvPlane(ref, pos, col)
	if !ok {
		return 0, false
	}
	return plane[i], true
}

// SetKV overwrites one cached scalar — what a KV-cache strike does. It is
// the only write below a state's cursor, so a target among the rows the
// state shares with its prefix first makes those rows private (the one
// copy-on-write left): the strike is visible to this state alone.
// Out-of-range targets panic.
func (st *State) SetKV(ref LayerRef, pos, col int, v float32) {
	if pos < st.nb {
		st.privatize()
	}
	plane, i, ok := st.kvPlane(ref, pos, col)
	if !ok {
		panic(fmt.Sprintf("model: SetKV %v (%d, %d) out of range", ref, pos, col))
	}
	plane[i] = v
}

// attendAt computes causal multi-head attention for the token at pos using
// the block's KV cache: q is the position's rotated query row and the
// concatenated head outputs are written to out. Scores and value mix run
// over the shared rows and then the state's own, which leaves the bits of
// one contiguous cache: a score is one key's own sum, and the mix
// continues each channel's t-ascending float32 sum across the boundary
// (tensor.MatVecStridedCont).
func (m *Model) attendAt(st *State, bi, pos int, qrow, out []float32) {
	cfg := &m.Cfg
	hd, d := cfg.HeadDim(), cfg.DModel
	scale := 1 / math.Sqrt(float64(hd))
	n, nb := pos+1, st.nb
	var baseK, baseV []float32
	if nb > 0 {
		baseK, baseV = st.base.kv[planeK][bi], st.base.kv[planeV][bi]
	}
	ownK, ownV := st.own[planeK][bi], st.own[planeV][bi]

	scores := st.attnScores[:n]
	qf := st.attnQ[:hd]
	for h := 0; h < cfg.NHeads; h++ {
		off := h * hd
		for i, qv := range qrow[off : off+hd] {
			qf[i] = float64(qv)
		}
		scoreKeys(scores[:nb], qf, baseK, off, d, scale)
		scoreKeys(scores[nb:], qf, ownK, off, d, scale)
		tensor.SoftmaxRow(scores)
		// Attention-weighted value mix through the one row kernel: each
		// output channel sums w·v in t-ascending order with zero-weight
		// positions skipped, over this head's columns of the V cache.
		o := out[off : off+hd]
		if nb == 0 {
			tensor.MatVecStrided(o, scores, ownV[off:], d)
			continue
		}
		tensor.MatVecStrided(o, scores[:nb], baseV[off:], d)
		tensor.MatVecStridedCont(o, scores[nb:], ownV[off:], d)
	}
}

// scoreKeys writes scores[t] = q·key[t]·scale for the first len(scores)
// rows of keys, a head's len(qf) columns starting at off of rows stride
// apart.
func scoreKeys(scores []float32, qf []float64, keys []float32, off, stride int, scale float64) {
	hd, n := len(qf), len(scores)
	row := func(t int) []float32 { return keys[t*stride+off : t*stride+off+hd] }
	// Four key positions per pass: each dot keeps its own float64
	// accumulator summed in i-ascending order — the exact sequence of
	// the one-position loop below — so every score is bit-identical
	// while the four independent chains hide the FP-add latency that
	// bounds a lone dot product.
	t := 0
	for ; t+4 <= n; t += 4 {
		k0 := row(t)
		// Reslicing everything to len(k0) (all are hd long) lets the
		// compiler prove the range index in bounds for every operand,
		// dropping four per-element bounds checks from the hot loop.
		k1 := row(t + 1)[:len(k0)]
		k2 := row(t + 2)[:len(k0)]
		k3 := row(t + 3)[:len(k0)]
		qh := qf[:len(k0)]
		var d0, d1, d2, d3 float64
		for i, kv := range k0 {
			qv := qh[i]
			d0 += qv * float64(kv)
			d1 += qv * float64(k1[i])
			d2 += qv * float64(k2[i])
			d3 += qv * float64(k3[i])
		}
		scores[t] = float32(d0 * scale)
		scores[t+1] = float32(d1 * scale)
		scores[t+2] = float32(d2 * scale)
		scores[t+3] = float32(d3 * scale)
	}
	for ; t < n; t++ {
		var dot float64
		for i, kv := range row(t) {
			dot += qf[i] * float64(kv)
		}
		scores[t] = float32(dot * scale)
	}
}
