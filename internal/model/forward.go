package model

import (
	"fmt"
	"math"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

// State holds the mutable per-inference state: the KV cache and scratch
// buffers. A Model may serve many States; a State must not be shared
// between goroutines.
type State struct {
	m   *Model
	Pos int // number of tokens processed so far

	// The KV cache (kv.go): block b's rows [0, nb[b]) read from base, the
	// rest own.
	base *Prefix
	nb   []int
	own  [2][][]float32 // [plane][block], rows × DModel
	rows int            // own rows allocated per plane and block

	// Depth (depth.go): a depth fork's passes start at sublayer from while
	// from > 0, and matched counts the positions that did; rec, when
	// non-nil, records the state's own planes for Snapshot.
	from, matched int
	rec           *planes

	// Scratch reused across steps: DecodeStep's one-row stack, the logits
	// it returns, and attention's per-head buffers.
	sk         *stack
	logits     []float32
	attnScores []float32
	attnQ      []float64

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
	st.attnScores = make([]float32, m.Cfg.MaxSeq)
	st.attnQ = make([]float64, m.Cfg.HeadDim())
	return st
}

// Reset rewinds the state to an empty context so the buffers can be
// reused for a fresh inference.
func (st *State) Reset() {
	st.Pos = 0
	st.base = nil
	clear(st.nb)
	st.from, st.matched, st.rec = 0, 0, nil
	st.ExpertTrace = nil
}

// Fork returns an independent copy of the state: position and the live
// prefix of the KV cache are duplicated, scratch buffers are fresh. Beam
// search forks candidate hypotheses from a shared prefix with this.
func (st *State) Fork() *State { return st.ForkFor(st.m) }

// ForkFor returns a copy of the state bound to m2, which must be the
// state's own model or a clone with the same architecture, so that m2's
// hooks — not the source model's — fire when generation continues.
func (st *State) ForkFor(m2 *Model) *State { return st.ForkAtInto(m2, nil, st.Pos) }

// ForkForInto is ForkFor recycling a retired state's buffers instead of
// allocating fresh ones: dst must have come from a state constructor on a
// model of the same architecture, and everything it held is overwritten.
// A nil dst falls back to a fresh fork.
func (st *State) ForkForInto(m2 *Model, dst *State) *State {
	return st.ForkAtInto(m2, dst, st.Pos)
}

// ForkAtInto is the positional fork of a live state: dst (a fresh state
// when nil) becomes the state st was when its cursor stood at pos.
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
	for pl := range st.own {
		for b, rows := range st.own[pl] {
			copy(dst.own[pl][b], rows[:(pos-dst.nb[b])*d])
		}
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
// model's own Observers. The returned slice is reused by the next call;
// copy it if it must outlive the step.
func (st *State) DecodeStep(tok int) []float32 { return st.decodeStep(tok, &st.m.obs) }

// decodeStep is DecodeStep under obs.
func (st *State) decodeStep(tok int, obs *Observers) []float32 {
	m := st.m
	if st.Pos >= m.Cfg.MaxSeq {
		panic(fmt.Sprintf("model: context overflow (max %d)", m.Cfg.MaxSeq))
	}
	st.reserveNext(1)
	rows := [1]stackRow{st.row(st.Pos, tok, obs)}
	m.forwardStack(st.sk, rows[:], 0, 1, 1)
	m.linearRow(&rows[0].obs, LayerRef{-1, KindLMHead, -1}, st.Pos, m.LMHead, st.sk.x.Row(0), st.logits)
	st.Pos++
	return st.logits
}

// mlpForward computes dst = down(silu(gate(h)) * up(h)) with ff1, ff2 and
// ffa as its hidden scratch. base carries the block and expert indices;
// its Kind field is overwritten per projection. obs observe the three
// projections.
func (m *Model) mlpForward(obs *Observers, mlp *MLPWeights, base LayerRef, pos int, dst, h, ff1, ff2, ffa []float32) {
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
func (m *Model) moeMix(sk *stack, row *stackRow, r int, blk *Block, bi int) {
	cfg := &m.Cfg
	routerLogits := sk.r.Row(r)
	k := min(cfg.TopK, cfg.NumExperts)
	sel := tensor.TopK(sk.sel[r*k:r*k:(r+1)*k], routerLogits, cfg.TopK)
	if tr := row.st.ExpertTrace; tr != nil {
		tr[bi] = append(tr[bi], sel...)
	}
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
		m.mlpForward(&row.obs, blk.Experts[e], LayerRef{bi, 0, e}, row.pos, out, h, ff1, ff2, ffa)
		w := probs[i]
		for j, v := range out {
			mix[j] += w * v
		}
	}
}

// Strike is a weight-resident fault — a flipped linear weight, norm-gain
// or embedding element — as an overlay the forward pass reads where the
// struck parameter is read, on the rows whose Observers carry it: the
// model's own (SetStrike) or one decode row's. No parameter storage is
// written, so rows with different strikes share one stacked pass over one
// set of weights. faults.New builds it.
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

// Observers are what watch, and may strike, one activation row of a
// forward pass: hooks on each linear-layer output, attention hooks on each
// block's post-attention activation, a checker verifying each linear
// output, and a weight-resident strike the row reads. A model carries one
// set (AddHook, AddAttnHook, SetChecker, SetStrike) that Prefill and
// DecodeStep run under; a decode row carries its own (DecodeRow), so rows
// sharing one stacked pass keep their own injection site and detection
// verdict. The zero value observes nothing, at no cost.
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

// struck returns the struck view of linear layer ref, nil when the strike
// does not address ref.
func (o *Observers) struck(ref LayerRef) *StruckWeight {
	if s := o.Strike; s != nil && s.Ref == ref {
		return s.W
	}
	return nil
}

// weight returns the weight the row reads for linear layer ref.
func (o *Observers) weight(ref LayerRef, w Weight) Weight {
	if sw := o.struck(ref); sw != nil {
		return sw
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

// linearRow computes out = in · w for one row under obs, through the
// row's strike when it addresses ref, and finishes it (finishLinear).
func (m *Model) linearRow(obs *Observers, ref LayerRef, pos int, w Weight, in, out []float32) {
	w = obs.weight(ref, w)
	w.Forward(out, in)
	m.finishLinear(obs, ref, pos, w, in, out)
}

// finishLinear applies the row's forward hooks to a linear layer's
// output, runs its checker if one is armed, and requantizes the output
// to the model datatype. Hooks run before rounding so an injected bit
// pattern is exactly the DType value; the checker runs after the hooks
// (it must see the fault) and before rounding (so its noise floor is the
// float32 kernel, not the storage datatype). w and in are the layer's
// weight and input row, which the checker needs to form the expected
// checksum and recompute a flagged output: w is the struck view where the
// row's strike addresses the layer, so a correcting checker recomputes
// through the fault.
func (m *Model) finishLinear(obs *Observers, ref LayerRef, pos int, w Weight, in, out []float32) {
	for _, h := range obs.Hooks {
		h(ref, pos, out)
	}
	if obs.Checker != nil {
		obs.Checker.CheckLinear(ref, pos, w, in, out)
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
