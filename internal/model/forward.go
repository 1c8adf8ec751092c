package model

import (
	"fmt"
	"math"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

// State holds the mutable per-inference state: the KV cache, scratch
// buffers and the observers the inference runs under. A Model may serve
// many States; a State must not be shared between goroutines.
type State struct {
	m   *Model
	Pos int // number of tokens processed so far

	// Observers watch, and may strike, every position the state runs:
	// Prefill's, DecodeStep's and its rows of a Batch.Step. The model
	// carries none, so an observer lives as long as the inference it
	// watches: a Fork carries the state's (a beam's hypotheses are one
	// inference), every other way to start an inference — NewState,
	// Reset, Prefix.ForkInto and ForkDepth — starts with none.
	Observers

	// The KV cache (kv.go): block b's rows [0, nb[b]) read from base, the
	// rest own.
	base *Prefix
	nb   []int
	own  [2][][]float32 // [plane][block]: K DModel columns rows apart, V rows × DModel
	rows int            // own rows allocated per plane and block, a multiple of kAlign

	// Depth (depth.go): a depth fork's passes start at sublayer from while
	// from > 0, and matched counts the positions that did; rec, when
	// non-nil, records the state's own planes for Snapshot.
	from, matched int
	rec           *planes

	// Scratch reused across steps: DecodeStep's one-row stack and the
	// logits it returns.
	sk     *stack
	logits []float32

	// ExpertTrace, when non-nil, records the experts selected at each step
	// for each MoE block — Figure 15's "expert selection changed" analysis.
	ExpertTrace [][]int
}

// NewState allocates inference state for m.
func (m *Model) NewState() *State { return m.newState(m.Cfg.MaxSeq) }

// newState allocates a state with room for rows rows of its own.
func (m *Model) newState(rows int) *State {
	st := &State{m: m, nb: make([]int, m.Cfg.NBlocks), sk: m.newStack(1)}
	for pl := range st.own {
		st.own[pl] = make([][]float32, m.Cfg.NBlocks)
	}
	st.reserve(rows, false)
	st.logits = make([]float32, m.Cfg.Vocab)
	return st
}

// Reset rewinds the state to an empty context, with no observers, so the
// buffers can be reused for a fresh inference.
func (st *State) Reset() {
	st.Pos = 0
	st.Observers = Observers{}
	st.base = nil
	clear(st.nb)
	st.from, st.matched, st.rec = 0, 0, nil
	st.ExpertTrace = nil
}

// Fork returns an independent copy of the state: position, observers and
// the live prefix of the KV cache are duplicated, scratch buffers are
// fresh. Beam search forks candidate hypotheses from a shared prefix with
// this.
func (st *State) Fork() *State { return st.ForkAtInto(st.m, nil, st.Pos) }

// ForkForInto is Fork bound to m2 — the state's own model or a clone of
// the same architecture — recycling a retired state's buffers instead of
// allocating fresh ones: dst must have come from a state constructor on a
// model of the same architecture, and everything it held is overwritten.
// A nil dst falls back to a fresh fork.
func (st *State) ForkForInto(m2 *Model, dst *State) *State {
	return st.ForkAtInto(m2, dst, st.Pos)
}

// ForkAtInto is the positional fork of a live state: dst (a fresh state
// when nil) becomes the state st was when its cursor stood at pos, under
// st's observers.
// Decoding only ever appends — row p of the KV cache and a position's
// ExpertTrace entries are written by the step at p and never again — so
// the first pos rows of a state that has run on are exactly the state a
// run stopped at pos would hold (unless something rewrote a row after
// the fact, as a KV-cache strike does). st may go on being written, so
// the rows it owns are copied; rows it reads from a Prefix stay shared.
// The fork of a depth fork computes every sublayer from pos on. A source
// that is finished is snapshotted once and forked by reference instead
// (Snapshot, Prefix.ForkInto). Forking beyond the cursor panics.
func (st *State) ForkAtInto(m2 *Model, dst *State, pos int) *State {
	if m2.Cfg.DModel != st.m.Cfg.DModel || m2.Cfg.NBlocks != st.m.Cfg.NBlocks || m2.Cfg.MaxSeq != st.m.Cfg.MaxSeq {
		panic("model: fork across different architectures")
	}
	if pos < 0 || pos > st.Pos {
		panic(fmt.Sprintf("model: fork at position %d of a state at %d", pos, st.Pos))
	}
	if dst == nil {
		dst = m2.NewState()
	}
	dst.m = m2
	dst.base, dst.Pos = st.base, pos
	dst.Observers = st.Observers
	for b, nb := range st.nb {
		dst.nb[b] = min(nb, pos)
	}
	dst.from, dst.matched, dst.rec = 0, 0, nil
	// Rows of dst's own cache at or beyond pos are left stale; attention
	// only ever reads positions below the state's cursor, and decode
	// writes each row before the step that reads it, so stale tails are
	// unobservable.
	dst.reserve(dst.ownRows(pos), false)
	d := st.m.Cfg.DModel
	for b, nb := range dst.nb {
		copyK(dst.own[planeK][b], dst.rows, 0, st.own[planeK][b], st.rows, pos-nb, d)
		copy(dst.own[planeV][b], st.own[planeV][b][:(pos-nb)*d])
	}
	dst.ExpertTrace = traceBelow(st.ExpertTrace, min(st.m.Cfg.TopK, st.m.Cfg.NumExperts), st.Pos, pos)
	return dst
}

// EnableExpertTrace starts recording MoE expert selections per block. A
// depth fork of a prefix that did not trace has no selections to lend the
// blocks its matched passes skip, so from here on it computes them all.
func (st *State) EnableExpertTrace() {
	st.ExpertTrace = make([][]int, st.m.Cfg.NBlocks)
	if st.base != nil && st.base.trace == nil {
		st.from = 0
	}
}

// DecodeStep runs one token through the model, appending to the KV cache,
// and returns the next-token logits. It is the one-row case of the
// stacked pass Prefill and Batch.Step run (forwardStack), under the
// state's Observers. The returned slice is reused by the next call; copy
// it if it must outlive the step.
func (st *State) DecodeStep(tok int) []float32 {
	m := st.m
	if st.Pos >= m.Cfg.MaxSeq {
		panic(fmt.Sprintf("model: context overflow (max %d)", m.Cfg.MaxSeq))
	}
	st.reserveNext(1)
	rows := [1]stackRow{st.row(st.Pos, tok)}
	m.forwardStack(st.sk, rows[:], 0, 1)
	m.linearRow(&st.Observers, LayerRef{-1, KindLMHead, -1}, st.sk.pos[:1], m.LMHead, st.sk.x.Row(0), st.logits)
	st.Pos++
	return st.logits
}

// mlpForward computes dst = down(silu(gate(h)) * up(h)) with ff1, ff2 and
// ffa as its hidden scratch. base carries the block and expert indices;
// its Kind field is overwritten per projection. obs observe the three
// projections of the row at position pos[0].
func (m *Model) mlpForward(obs *Observers, mlp *MLPWeights, base LayerRef, pos []int, dst, h, ff1, ff2, ffa []float32) {
	base.Kind = KindGate
	m.linearRow(obs, base, pos, mlp.WGate, h, ff1)
	base.Kind = KindUp
	m.linearRow(obs, base, pos, mlp.WUp, h, ff2)
	tensor.SiLUMul(ffa, ff1, ff2)
	base.Kind = KindDown
	m.linearRow(obs, base, pos, mlp.WDown, ffa, dst)
}

// moeMix routes row r of a stacked pass — its post-norm activation sk.h,
// whose router logits sk.r are already finished — through the top-K
// experts they select and writes the probability-weighted mixture to
// sk.d, every expert's MLP under the row's own observers with row r of
// sk's hidden tensors, and its slots of sk's MoE scratch, as its scratch.
// The selection stays in the row's block bi slot for the pass's trace.
func (m *Model) moeMix(sk *stack, row *stackRow, r int, blk *Block, bi int) {
	cfg := &m.Cfg
	routerLogits := sk.r.Row(r)
	k := min(cfg.TopK, cfg.NumExperts)
	sel := tensor.TopK(sk.selAt(bi, r, k)[:0], routerLogits, cfg.TopK)
	// Softmax over the selected logits only (Mixtral-style renormalization).
	probs := sk.probs[r*k : (r+1)*k]
	var maxv float32 = float32(math.Inf(-1))
	for i, e := range sel {
		probs[i] = routerLogits[e]
		if probs[i] > maxv {
			maxv = probs[i]
		}
	}
	var sum float64
	for i := range probs {
		p := math.Exp(float64(probs[i] - maxv))
		probs[i] = float32(p)
		sum += p
	}
	if sum > 0 && !math.IsNaN(sum) && !math.IsInf(sum, 0) {
		for i := range probs {
			probs[i] = float32(float64(probs[i]) / sum)
		}
	} else {
		for i := range probs {
			probs[i] = 1 / float32(len(probs))
		}
	}

	mix, out := sk.d.Row(r), sk.mo.Row(r)
	clear(mix)
	h, ff1, ff2, ffa := sk.h.Row(r), sk.ff1.Row(r), sk.ff2.Row(r), sk.ffa.Row(r)
	for i, e := range sel {
		m.mlpForward(&row.st.Observers, blk.Experts[e], LayerRef{bi, 0, e}, sk.pos[r:r+1], out, h, ff1, ff2, ffa)
		w := probs[i]
		for j, v := range out {
			mix[j] += w * v
		}
	}
}

// Strike is a weight-resident fault — a flipped linear weight, norm-gain
// or embedding element — as an overlay the forward pass reads where the
// struck parameter is read, on the rows of the states whose Observers
// carry it. No parameter storage is written, so rows with different
// strikes share one stacked pass over one set of weights. faults.New
// builds it.
type Strike struct {
	// Ref addresses the struck parameter: a linear layer, a norm gain
	// (KindAttnNorm, KindMLPNorm, KindFinalNorm) or the embedding table
	// (KindEmbed).
	Ref LayerRef
	// W is the struck view of a linear layer's weight (Weight.Struck).
	W *StruckWeight
	// Vec is what a norm or embedding strike reads in place of the stored
	// vector: the gain, or embedding row Row, with the flipped element.
	Vec []float32
	Row int
}

// Observers are what watch, and may strike, one inference's activation
// rows: hooks on each linear-layer output, attention hooks on each block's
// post-attention activation, a checker verifying each linear output, and a
// weight-resident strike the rows read. Each State carries its own set
// (State.Observers), so rows sharing one stacked pass keep their own
// injection site and detection verdict, and any number of inferences run
// over one model's weights under observers of their own. The zero value
// observes nothing, at no cost.
//
// One row's observers fire in the serial order, on one goroutine: a
// decode step runs its rows on the caller's (Batch.Step). Two places call
// observers concurrently. A prefill's positions share their state's
// Observers and run in shards (forwardStack): its hooks and attention
// hooks are spared, since a pass whose state carries hooks runs as one
// shard, but a Checker and a Strike are not. And
// separate loops over one model's weights — a campaign's workers and
// their lanes, the serving engine's lanes — run their rows at once. So
// whatever observers share must be safe for concurrent calls on distinct
// rows and positions, as abft.Checker and mitigate.Restrictor's atomic
// counters are.
type Observers struct {
	// Hooks fire on each linear-layer output, in order.
	Hooks []Hook
	// AttnHooks fire on each block's post-attention activation (kind
	// KindAttnAct), after the head mix and before out_proj.
	AttnHooks []Hook
	// Checker, when non-nil, verifies each linear-layer output.
	Checker LinearChecker
	// Strike, when non-nil, is the weight-resident fault the row reads.
	Strike *Strike
}

// weight returns the weight the row reads for linear layer ref: the
// struck view where the row's strike addresses it.
func (o *Observers) weight(ref LayerRef, w Weight) Weight {
	if s := o.Strike; s != nil && s.Ref == ref && s.W != nil {
		return s.W
	}
	return w
}

// gain returns the gain vector the row reads for norm ref.
func (o *Observers) gain(ref LayerRef, g []float32) []float32 {
	if s := o.Strike; s != nil && s.Ref == ref {
		return s.Vec
	}
	return g
}

// embedding returns the embedding row the row reads for token tok.
func (o *Observers) embedding(m *Model, tok int) []float32 {
	if s := o.Strike; s != nil && s.Ref.Kind == KindEmbed && s.Row == tok {
		return s.Vec
	}
	return m.Embed.Row(tok)
}

// linearRow computes out = in · w for the one row at position pos[0]
// under obs, as linearRows does a run of rows.
func (m *Model) linearRow(obs *Observers, ref LayerRef, pos []int, w Weight, in, out []float32) {
	w = obs.weight(ref, w)
	w.Forward(out, in)
	for _, h := range obs.Hooks {
		h(ref, pos[0], out)
	}
	m.checkRound(obs.Checker, ref, w, len(obs.Hooks) > 0, pos, in, out)
}

// checkRound finishes a linear layer's output rows, whose hooks have run:
// c, when armed, checks them in one call, and then they are requantized
// to the model datatype. Hooks run before rounding so an injected bit
// pattern is exactly the DType value; the checker runs after the hooks
// (it must see the fault) and before rounding (so its noise floor is the
// float32 kernel, not the storage datatype). w and in are the layer's
// weight and input rows, which the checker needs to form the expected
// checksums and recompute a flagged output: w is the struck view where
// the rows' strike addresses the layer, so a correcting checker
// recomputes through the fault. Only a hook makes an output row differ
// from in·w, so the checker is handed w only when a hook ran on one of
// the rows (hooked; LinearChecker): otherwise a recompute would give the
// same bits.
func (m *Model) checkRound(c LinearChecker, ref LayerRef, w Weight, hooked bool, pos []int, in, out []float32) {
	if c != nil {
		if !hooked {
			w = nil
		}
		c.CheckLinear(ref, w, pos, in, out)
	}
	numerics.RoundSlice(m.Cfg.DType, out)
}

// applyRoPE rotates adjacent element pairs of each head of vec by the
// position-dependent angles of rotary position embedding.
func (m *Model) applyRoPE(vec []float32, pos int) {
	cosT, sinT := m.ropeCos[pos], m.ropeSin[pos]
	hd := m.Cfg.HeadDim()
	for h := 0; h < m.Cfg.NHeads; h++ {
		off := h * hd
		for i := 0; i < hd/2; i++ {
			c, s := cosT[i], sinT[i]
			a, b := vec[off+2*i], vec[off+2*i+1]
			vec[off+2*i] = a*c - b*s
			vec[off+2*i+1] = a*s + b*c
		}
	}
}

// InitRope precomputes the rotary embedding tables for every position.
// Build and Load call it automatically; packages that assemble a Model
// from parts (quantization, training export) must call it once before
// inference.
func (m *Model) InitRope() { m.initRope() }

// initRope precomputes the rotary tables for every position.
func (m *Model) initRope() {
	cfg := &m.Cfg
	hd := cfg.HeadDim()
	m.ropeCos = make([][]float32, cfg.MaxSeq)
	m.ropeSin = make([][]float32, cfg.MaxSeq)
	for p := 0; p < cfg.MaxSeq; p++ {
		cosT := make([]float32, hd/2)
		sinT := make([]float32, hd/2)
		for i := 0; i < hd/2; i++ {
			freq := 1 / math.Pow(cfg.RopeTheta, float64(2*i)/float64(hd))
			ang := float64(p) * freq
			cosT[i] = float32(math.Cos(ang))
			sinT[i] = float32(math.Sin(ang))
		}
		m.ropeCos[p] = cosT
		m.ropeSin[p] = sinT
	}
}
