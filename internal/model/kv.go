package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// A State's KV cache is held in two pieces per block. Block b's positions
// [0, nb[b]) are those of base, a Prefix shared by reference with every
// other fork of it and never written; positions [nb[b], Pos) are the
// state's own, position p at index p-nb[b] of own[plane][b]. NewState has
// no base and owns MaxSeq positions up front; a Prefix.ForkInto state
// shares the same nb positions in every block and owns only the ones it
// appends, grown on demand and kept when the state is recycled; a depth
// fork (depth.go) goes on sharing, in the blocks whose attention its
// matched passes skip, one more position per matched one. Decoding only
// appends, so nothing below nb[b] is ever written — except by a KV-cache
// strike, which first makes the shared positions private (SetKV).
//
// The two planes are laid out for the loops that read them. V is
// row-major, DModel-wide head-major rows, because the value mix runs its
// lanes across a row's columns. K is position-contiguous per column:
// element (p, c) sits at c·ld + p, where ld is the plane's row capacity
// (the state's rows, a Prefix's ld), because the Q·K lanes run across
// positions and so load sixteen keys of one column with no transpose.
// Every ld is a multiple of kAlign, so every column's passes of sixteen
// lanes sit at the same offsets from the plane's start. The lanes read no
// key past the scores they compute (a last pass short of sixteen is
// masked): a sharded prefill's shard attends while the next shard writes
// the positions after its own (forwardStack).

// kAlign is the multiple every K plane's row capacity is rounded up to:
// the Q·K lanes take sixteen positions a pass.
const kAlign = 16

// kPad rounds n up to a multiple of kAlign.
func kPad(n int) int { return (n + kAlign - 1) &^ (kAlign - 1) }

// copyK copies positions [0, n) of each of d columns of the K plane src,
// row capacity sld, to positions [at, at+n) of dst, row capacity dld.
func copyK(dst []float32, dld, at int, src []float32, sld, n, d int) {
	if n <= 0 {
		return
	}
	for c := range d {
		copy(dst[c*dld+at:c*dld+at+n], src[c*sld:c*sld+n])
	}
}

// The two planes of a KV cache.
const (
	planeK = iota
	planeV
)

// Prefix is an immutable KV cache: the first Pos rows of the state it was
// snapshotted from, with its expert trace and, when that state recorded
// them (RecordDepth), its depth planes. Nothing aliases a live state and
// no method writes it, so any number of goroutines may fork from and
// attend over one Prefix with no writer rule to follow: it needs only to
// be published the way any value is (a channel, a mutex, a WaitGroup).
type Prefix struct {
	dModel, maxSeq int
	pos            int
	ld             int            // the K planes' row capacity, pos rounded up to kAlign
	kv             [2][][]float32 // [plane][block]: K dModel columns ld apart, V pos × dModel rows
	trace          [][]int        // per block, nil when the state did not trace
	perPos         int            // trace entries a routed position appends
	depth          *planes        // nil when the state did not record them
}

// Pos is the number of positions the prefix holds.
func (p *Prefix) Pos() int { return p.pos }

// PositionBytes is what a Prefix of a model of this configuration holds
// for one position (Bytes): its K/V rows and, when depth is set, its
// depth planes' residual rows and token.
func (c *Config) PositionBytes(depth bool) int {
	n := 2 * c.NBlocks * c.DModel * 4
	if depth {
		n += (2*c.NBlocks-1)*c.DModel*4 + 8
	}
	return n
}

// Bytes is the size of the prefix's cached rows and depth planes, what a
// budget over prefixes counts; the K planes' padding, at most kAlign-1
// positions a block, is not counted.
func (p *Prefix) Bytes() int {
	n := 2 * len(p.kv[planeK]) * p.pos * p.dModel * 4
	if p.depth != nil {
		n += p.depth.bytes()
	}
	return n
}

// Snapshot returns an exact copy of the state's first Pos rows, its
// expert trace and the depth planes it recorded below Pos as an immutable
// Prefix.
func (st *State) Snapshot() *Prefix {
	cfg := &st.m.Cfg
	d := cfg.DModel
	ld := kPad(st.Pos)
	p := &Prefix{dModel: d, maxSeq: cfg.MaxSeq, pos: st.Pos, ld: ld, perPos: min(cfg.TopK, cfg.NumExperts)}
	p.kv[planeK], p.kv[planeV] = make([][]float32, cfg.NBlocks), make([][]float32, cfg.NBlocks)
	for b, rows := range slab(cfg.NBlocks, (ld+st.Pos)*d) {
		k, v := rows[:ld*d:ld*d], rows[ld*d:]
		nb := st.nb[b]
		if nb > 0 {
			copyK(k, ld, 0, st.base.kv[planeK][b], st.base.ld, nb, d)
			copy(v, st.base.kv[planeV][b][:nb*d])
		}
		copyK(k, ld, nb, st.own[planeK][b], st.rows, st.Pos-nb, d)
		copy(v[nb*d:], st.own[planeV][b])
		p.kv[planeK][b], p.kv[planeV][b] = k, v
	}
	if st.ExpertTrace != nil {
		p.trace = make([][]int, len(st.ExpertTrace))
		for b, tr := range st.ExpertTrace {
			p.trace[b] = slices.Clone(tr)
		}
	}
	if st.rec != nil {
		p.depth = st.rec.below(st.Pos, d)
	}
	return p
}

// ForkInto is the O(1) fork: dst (a fresh state when nil) becomes the
// state the prefix's source was when its cursor stood at pos, bound to m2
// — the source's model or a clone of the same architecture — with no
// observers. dst reads rows below pos from the prefix and appends its own
// after them, so Prefill, DecodeStep and Batch.Step run on it unchanged;
// whatever dst held is forgotten, its observers too, its own rows'
// allocation kept for the rows to come.
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
	dst.base, dst.Pos = p, pos
	dst.Observers = Observers{}
	for b := range dst.nb {
		dst.nb[b] = pos
	}
	dst.from, dst.matched, dst.rec = 0, 0, nil
	dst.ExpertTrace = traceBelow(p.trace, p.perPos, p.pos, pos)
	return dst
}

// slab returns n slices of size elements carved from one allocation, each
// with its capacity clipped to its length: a prefix's rows are many
// arrays of a few dozen KB, and one allocation for all of them spares the
// page rounding each would pay alone.
func slab(n, size int) [][]float32 {
	all := make([]float32, n*size)
	out := make([][]float32, n)
	for i := range out {
		out[i] = all[i*size : (i+1)*size : (i+1)*size]
	}
	return out
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

// reserve makes room for rows own rows per plane and block, keeping each
// block's own rows below the cursor when keep is set. Capacity doubles, so
// a decode that appends a row per step reallocates O(log n) times, and is
// a multiple of kAlign, the K planes' padding.
func (st *State) reserve(rows int, keep bool) {
	if rows <= st.rows {
		return
	}
	cfg := &st.m.Cfg
	d := cfg.DModel
	rows = kPad(min(max(rows, 2*st.rows, kAlign), cfg.MaxSeq))
	for b := range st.nb {
		k, v := make([]float32, rows*d), make([]float32, rows*d)
		if keep {
			n := st.Pos - st.nb[b]
			copyK(k, rows, 0, st.own[planeK][b], st.rows, n, d)
			copy(v, st.own[planeV][b][:n*d])
		}
		st.own[planeK][b], st.own[planeV][b] = k, v
	}
	st.rows = rows
}

// ownRows is the most rows of its own any block holds once the state has
// run every position below pos.
func (st *State) ownRows(pos int) int {
	n := 0
	for _, nb := range st.nb {
		n = max(n, pos-nb)
	}
	return n
}

// reserveNext makes room for n more positions after the cursor, in the
// depth planes too when the state records them.
func (st *State) reserveNext(n int) {
	st.reserve(st.ownRows(st.Pos+n), true)
	if st.rec != nil {
		st.rec.reserve(st.Pos+n, st.m.Cfg.MaxSeq, st.m.Cfg.DModel)
	}
}

// appendKV stores the key and value rows of position pos, which
// reserveNext has made room for.
func (st *State) appendKV(b, pos int, k, v []float32) {
	at, own := pos-st.nb[b], st.own[planeK][b]
	for c, kv := range k {
		own[c*st.rows+at] = kv
	}
	d := len(v)
	copy(st.own[planeV][b][at*d:(at+1)*d], v)
}

// privatize copies the shared rows into the state's own, below the rows
// it has appended: the state stops reading its base — its KV rows and, for
// a depth fork, its residual planes.
func (st *State) privatize() {
	if st.base == nil {
		return
	}
	d := st.m.Cfg.DModel
	st.reserve(st.Pos, true)
	for b, nb := range st.nb {
		n := st.Pos - nb
		k, v := st.own[planeK][b], st.own[planeV][b]
		copyK(k, st.rows, nb, k, st.rows, n, d) // each column moves within itself
		copyK(k, st.rows, 0, st.base.kv[planeK][b], st.base.ld, nb, d)
		copy(v[nb*d:], v[:n*d])
		copy(v, st.base.kv[planeV][b][:nb*d])
	}
	clear(st.nb)
	st.base, st.from = nil, 0
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
	nb := st.nb[ref.Block]
	switch {
	case pos >= nb && pl == planeK:
		return st.own[pl][ref.Block], col*st.rows + pos - nb, true
	case pos >= nb:
		return st.own[pl][ref.Block], (pos-nb)*d + col, true
	case pl == planeK:
		return st.base.kv[pl][ref.Block], col*st.base.ld + pos, true
	}
	return st.base.kv[pl][ref.Block], pos*d + col, true
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
	plane, i, ok := st.kvPlane(ref, pos, col)
	if !ok {
		panic(fmt.Sprintf("model: SetKV %v (%d, %d) out of range", ref, pos, col))
	}
	if pos < st.nb[ref.Block] {
		st.privatize()
		plane, i, _ = st.kvPlane(ref, pos, col)
	}
	plane[i] = v
}

// attendAt computes causal multi-head attention for the token at pos using
// the block's KV cache: q is the position's rotated query row and the
// concatenated head outputs are written to out; scores (at least pos+1
// long) and qf (HeadDim long) are the row's scratch. Scores and value mix run
// over the shared rows and then the state's own, which leaves the bits of
// one contiguous cache: a score is one key's own sum, and the mix
// continues each channel's t-ascending float32 sum across the boundary
// (tensor.MatVecStridedCont).
func (m *Model) attendAt(st *State, bi, pos int, qrow, out, scores []float32, qf []float64) {
	cfg := &m.Cfg
	hd, d := cfg.HeadDim(), cfg.DModel
	scale := 1 / math.Sqrt(float64(hd))
	n, nb := pos+1, st.nb[bi]
	var baseK, baseV []float32
	baseLd := 0
	if nb > 0 {
		baseK, baseV, baseLd = st.base.kv[planeK][bi], st.base.kv[planeV][bi], st.base.ld
	}
	ownK, ownV := st.own[planeK][bi], st.own[planeV][bi]

	scores, qf = scores[:n], qf[:hd]
	for h := 0; h < cfg.NHeads; h++ {
		off := h * hd
		for i, qv := range qrow[off : off+hd] {
			qf[i] = float64(qv)
		}
		scoreKeys(scores[:nb], qf, baseK[off*baseLd:], baseLd, scale)
		scoreKeys(scores[nb:], qf, ownK[off*st.rows:], st.rows, scale)
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

// scoreKeys is the Q·K kernel attendAt runs: the AVX assembly where the
// row kernel runs its own (set once at init, score_amd64.go),
// scoreKeysPortable everywhere else. Both produce the same bits, so
// nothing chooses between them and only the kernel tests assign this.
var scoreKeys = scoreKeysPortable

// scoreKeysPortable writes scores[t] = float32(Σ_i q[i]·float64(keys[i·ld
// + t]) · scale), the sum i-ascending from +0, for the first len(scores)
// positions of a head's len(qf) columns of a K plane, ld apart. Each
// product is converted to float64 explicitly, so no compiler may fuse it
// into the add (an FMA on arm64 would round differently from the lanes).
func scoreKeysPortable(scores []float32, qf []float64, keys []float32, ld int, scale float64) {
	n := len(scores)
	// Four key positions per pass: each dot keeps its own float64
	// accumulator summed in i-ascending order — the exact sequence of
	// the one-position loop below — so every score is bit-identical
	// while the four independent chains hide the FP-add latency that
	// bounds a lone dot product.
	t := 0
	for ; t+4 <= n; t += 4 {
		var d0, d1, d2, d3 float64
		at := t
		for _, qv := range qf {
			k := keys[at : at+4 : at+4]
			at += ld
			d0 += float64(qv * float64(k[0]))
			d1 += float64(qv * float64(k[1]))
			d2 += float64(qv * float64(k[2]))
			d3 += float64(qv * float64(k[3]))
		}
		scores[t] = float32(d0 * scale)
		scores[t+1] = float32(d1 * scale)
		scores[t+2] = float32(d2 * scale)
		scores[t+3] = float32(d3 * scale)
	}
	for ; t < n; t++ {
		var dot float64
		for i, qv := range qf {
			dot += float64(qv * float64(keys[i*ld+t]))
		}
		scores[t] = float32(dot * scale)
	}
}
