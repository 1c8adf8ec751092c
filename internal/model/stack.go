package model

import (
	"sync"

	"repro/internal/tensor"
)

// stackRow is one activation row of a stacked forward pass: the state
// whose KV cache it extends and attends over, the position and token it
// enters at, and the sublayer it starts at (0, or a depth fork's while it
// matches its prefix). The row runs under its state's observers.
type stackRow struct {
	st       *State
	pos, tok int
	from     int
}

// row is the stack row of the state's position pos fed tok. Rows are made
// in position order, each before the pass that runs it: a depth fork
// decides here, once per position, whether the pass may skip (skipTo).
func (st *State) row(pos, tok int) stackRow {
	return stackRow{st: st, pos: pos, tok: tok, from: st.skipTo(pos, tok)}
}

// stack is the scratch of a stacked forward pass, one activation row per
// stackRow. A pass touches only rows [r0, r1) of each tensor, and every
// piece of scratch is some row's own — attention's and MoE routing's
// too — so passes over disjoint row ranges share nothing they write.
type stack struct {
	x, h, q, kb, vb, a, d *tensor.Tensor // rows × DModel
	ff1, ff2, ffa         *tensor.Tensor // rows × FFHidden
	scores                *tensor.Tensor // rows × MaxSeq: a row's attention scores
	qf                    []float64      // rows × HeadDim: a row's query head in float64
	pos                   []int          // rows: a row's position, for its checker (forwardStack)
	r                     *tensor.Tensor // rows × NumExperts (MoE only)
	mo                    *tensor.Tensor // rows × DModel: an expert's output (MoE only)
	sel                   []int          // NBlocks × rows × TopK: each block's selected experts (MoE only)
	probs                 []float32      // rows × TopK: their mixing weights (MoE only)

	// rows is a prefill's stack rows, MaxSeq of them (prefillStack).
	rows []stackRow
}

func (m *Model) newStack(rows int) *stack {
	cfg := &m.Cfg
	sk := &stack{
		x:      tensor.New(rows, cfg.DModel), // residual stream
		h:      tensor.New(rows, cfg.DModel), // normed input / out-projection
		q:      tensor.New(rows, cfg.DModel),
		kb:     tensor.New(rows, cfg.DModel), // key rows (pre-cache)
		vb:     tensor.New(rows, cfg.DModel), // value rows (pre-cache)
		a:      tensor.New(rows, cfg.DModel), // concatenated head outputs
		d:      tensor.New(rows, cfg.DModel), // MLP / MoE block output
		ff1:    tensor.New(rows, cfg.FFHidden),
		ff2:    tensor.New(rows, cfg.FFHidden),
		ffa:    tensor.New(rows, cfg.FFHidden),
		scores: tensor.New(rows, cfg.MaxSeq),
		qf:     make([]float64, rows*cfg.HeadDim()),
		pos:    make([]int, rows),
	}
	if cfg.IsMoE() {
		k := min(cfg.TopK, cfg.NumExperts)
		sk.r = tensor.New(rows, cfg.NumExperts)
		sk.mo = tensor.New(rows, cfg.DModel)
		sk.sel = make([]int, cfg.NBlocks*rows*k)
		sk.probs = make([]float32, rows*k)
	}
	return sk
}

// prefillStack takes a MaxSeq-row stack from the model's pool, which
// holds what finished prefills put back (putPrefillStack): a prompt's
// scratch is a few KB a position, most of what a campaign trial that
// re-prefills would otherwise allocate, and prefills of one model may
// run concurrently (serving), so the pool, not one buffer, recycles it.
func (m *Model) prefillStack() *stack {
	if sk, ok := m.stacks.Get().(*stack); ok {
		return sk
	}
	sk := m.newStack(m.Cfg.MaxSeq)
	sk.rows = make([]stackRow, m.Cfg.MaxSeq)
	return sk
}

// putPrefillStack returns a prefill's stack to the pool, first dropping
// its n rows' views: a pooled stack must not pin a finished prompt's
// State and observers.
func (m *Model) putPrefillStack(sk *stack, n int) {
	clear(sk.rows[:n])
	m.stacks.Put(sk)
}

// selAt is row r's slot for the experts block bi selects (MoE only).
func (sk *stack) selAt(bi, r, k int) []int {
	i := (bi*sk.x.Rows + r) * k
	return sk.sel[i : i+k : i+k]
}

// span is rows [r0, r1) of a stacked tensor's data.
func span(t *tensor.Tensor, r0, r1 int) []float32 { return t.Data[r0*t.Cols : r1*t.Cols] }

// linearRows runs rows [r0, r1) of in through w into out, each row under
// its state's observers. It takes the rows in runs of consecutive rows
// that share a checker and read one weight (the row's strike may replace
// w): each row's product and hooks, in row order, then the run's one
// check and its rounding (checkRound). A prefill's rows share their
// observers, so a shard of it is one run; a decode batch's rows each
// carry their own checker, and run one by one. A row's own order — hooks,
// check, rounding — is the one-row pass's, and no row's observers touch
// another row (forwardStack), so every value is bit-identical to running
// the rows one at a time. in is row-aligned with out: a checker verifies
// each row against the exact input row its product consumed.
func (m *Model) linearRows(sk *stack, rows []stackRow, ref LayerRef, w Weight, in, out *tensor.Tensor, r0, r1 int) {
	for a := r0; a < r1; {
		obs := &rows[a].st.Observers
		wa := obs.weight(ref, w)
		b := a + 1
		for b < r1 && rows[b].st.Checker == obs.Checker && rows[b].st.weight(ref, w) == wa {
			b++
		}
		hooked := false
		for i := a; i < b; i++ {
			wa.Forward(out.Row(i), in.Row(i))
			for _, h := range rows[i].st.Hooks {
				h(ref, rows[i].pos, out.Row(i))
			}
			hooked = hooked || len(rows[i].st.Hooks) > 0
		}
		m.checkRound(obs.Checker, ref, wa, hooked, sk.pos[a:b], span(in, a, b), span(out, a, b))
		a = b
	}
}

// minShardRows is the fewest rows a shard of a pass takes: a few rows'
// worth of work does not repay starting a goroutine and waiting for it.
// Below twice this many rows a pass runs as one shard.
const minShardRows = 16

// forwardStack runs rows [r0, r1) through the transformer as one stacked
// pass — embed, every block, final norm — leaving each row's normalised
// residual in sk.x for the caller's LM head. Prefill stacks the positions
// of one prompt; Batch.Step stacks its independent trials; DecodeStep is
// the one-row pass.
//
// A pass over one state's positions (a prefill) of at least
// 2·minShardRows rows whose observers carry no hooks runs on min(threads, rows/minShardRows) goroutines (the model's
// SetThreads budget), the caller's first, each taking a contiguous
// shard of the rows through the whole pass with every product serial:
// the thread budget buys whole rows — norms, checks, attention, RoPE,
// SiLU — not only their GEMMs. Before each block's attention a shard
// waits until the shards before it have written that block's K/V
// (runShard). Every other pass is the one-shard case of the same code.
// Hooks and attention hooks see rows in the serial order, on one
// goroutine; a checker and a strike may be called on distinct rows at
// once (Observers).
//
// Every value a row computes, shows an observer or writes to its KV cache
// is bit-identical to that row going through the pass alone, one row per
// pass in position order (State.DecodeStep, the seed's per-token loop):
//
//   - Norms, RoPE, SwiGLU, MoE routing and the residual adds act on one
//     row at a time, and every product is the row's own MatVec, so a
//     row's arithmetic does not depend on which rows are stacked with it,
//     on [r0, r1), or on the shards.
//   - A row's observers run once per layer on that row only, in the
//     block's layer order (stacking makes the global order layer-major,
//     never a row's own), and attention hooks fire after the head mix and
//     before out-proj. A checker shared by consecutive rows sees them in
//     one call per layer (linearRows), each row its own slice of it. A row's strike is read only by that row: its
//     embedding row, its norm gain, or the one column of its struck
//     linear that the flipped element feeds (StruckWeight).
//   - Attention at (state, pos) reads that state's K/V rows 0..pos and
//     nothing past them (the Q·K lanes mask their last pass). Rows sharing
//     a state must be at consecutive ascending positions in row order, and
//     must not be split across concurrent calls; a row attends only once
//     every row at or before its position has written that block's K/V —
//     its own shard's earlier in the same segment, earlier shards' before
//     the shard waits — while later positions may still be unwritten.
//   - A traced state's expert selections are appended after the pass, in
//     row order, from each row's own slot (sk.sel).
//
// A row with from > 0 is a depth fork's matched position (depth.go): it
// enters at sublayer from with the residual its prefix recorded there and
// runs only the sublayers from on, reading the skipped blocks' K/V rows
// from the prefix — the values those sublayers would have computed. Rows
// starting at different sublayers run as consecutive passes, one per run
// of equal starts in row order, each sharded on its own; a prompt's
// matched positions precede the rest, so each pass's rows attend only
// over rows already written. A recording state (RecordDepth) keeps the
// residual at the start of each sublayer, and the token, of every row at
// or past the position it records from.
//
// The caller has made room for every row's position in its state's cache
// (State.reserveNext) before the pass, on one goroutine.
//
// Concurrent calls on disjoint row ranges over disjoint states share only
// what a pass never writes: weights, strikes, RoPE tables, a checker's
// checksum table, the Prefix several states may read their first rows
// from.
func (m *Model) forwardStack(sk *stack, rows []stackRow, r0, r1 int) {
	for i := r0; i < r1; i++ {
		sk.pos[i] = rows[i].pos
	}
	for r0 < r1 {
		r := r0 + 1
		for r < r1 && rows[r].from == rows[r0].from {
			r++
		}
		p := pass{m: m, sk: sk, rows: rows, from: rows[r0].from}
		if shards := p.shards(r0, r); shards > 1 {
			p.runSharded(r0, r, shards)
		} else {
			for j := range p.segments() {
				p.segment(j, r0, r)
			}
		}
		p.trace(r0, r)
		r0 = r
	}
}

// pass is one run of a stacked forward pass: rows that all enter at
// sublayer from.
type pass struct {
	m    *Model
	sk   *stack
	rows []stackRow
	from int
}

// shards is how many goroutines run rows [r0, r1): one unless the rows
// are one state's positions, make at least two shards of minShardRows
// and the state carries no hooks. A decode batch's rows are different
// states' and always run on the caller's goroutine (Batch).
func (p *pass) shards(r0, r1 int) int {
	n := min(p.m.Threads(), (r1-r0)/minShardRows)
	st := p.rows[r0].st
	if n < 2 || st != p.rows[r1-1].st || len(st.Hooks) > 0 || len(st.AttnHooks) > 0 {
		return 1
	}
	return n
}

// runSharded runs the pass over rows [r0, r1) on shards goroutines, the
// caller's first, each taking its contiguous share of the rows through
// every segment, and returns when all have finished. It is its own
// function, and takes the pass by value, so that its closures, WaitGroup
// and progress are allocated only by a sharded pass.
func (p pass) runSharded(r0, r1, shards int) {
	n := r1 - r0
	pr := newProgress(shards)
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		a, b := r0+s*n/shards, r0+(s+1)*n/shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.runShard(pr, s, a, b)
		}()
	}
	p.runShard(pr, 0, r0, r0+n/shards)
	wg.Wait()
}

// runShard runs shard s, rows [a, b), through the pass. Attention is
// causal: a shard's rows attend over its own K/V rows and those of the
// shards before it, never after. So before each segment that attends, the
// shard waits only until every earlier shard has finished the segment
// before — written that block's K/V — and the first shard never waits: a
// shard that starts late (its core was busy) holds up only the shards
// after it, and the caller's shard runs straight through.
func (p *pass) runShard(pr *progress, s, a, b int) {
	for j := range p.segments() {
		if j > 0 && s > 0 {
			pr.await(s, j)
		}
		p.segment(j, a, b)
		pr.finish(s)
	}
}

// progress is how many segments each shard of a sharded pass has
// finished.
type progress struct {
	mu   sync.Mutex
	cond sync.Cond
	done []int //llmfi:guardedby mu
}

func newProgress(shards int) *progress {
	pr := &progress{done: make([]int, shards)}
	pr.cond.L = &pr.mu
	return pr
}

// finish records that shard s has finished its next segment.
func (pr *progress) finish(s int) {
	pr.mu.Lock()
	pr.done[s]++
	pr.mu.Unlock()
	pr.cond.Broadcast()
}

// await blocks until every shard before s has finished j segments.
func (pr *progress) await(s, j int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for k := 0; k < s; k++ {
		for pr.done[k] < j {
			pr.cond.Wait()
		}
	}
}

// segments is the number of segments of the pass: one more than the
// blocks whose attention it computes.
func (p *pass) segments() int { return len(p.m.Blocks) - (p.from+1)/2 + 1 }

// segment runs segment j of the pass over rows [a, b). The segments
// split the pass where a shard may wait, after each block's K/V write
// (runShard): segment 0 enters the rows (and runs the MLP of a pass that
// starts at one) up to the first K/V write; segment j > 0 finishes the
// attention whose K/V segment j-1 wrote, runs that block's MLP, and then
// the next block's attention up to its K/V write, or the final norm
// after the last block.
func (p *pass) segment(j, a, b int) {
	bi := (p.from+1)/2 + j - 1
	if j == 0 {
		p.enter(a, b)
		if p.from%2 == 1 {
			p.mlp(bi, a, b)
		}
	} else {
		p.attend(bi, a, b)
		p.mlp(bi, a, b)
	}
	if bi+1 < len(p.m.Blocks) {
		p.qkv(bi+1, a, b)
		return
	}
	p.norm(p.sk.x, LayerRef{-1, KindFinalNorm, -1}, p.m.FinalNorm, a, b)
}

// enter loads each row's residual at the pass's first sublayer: its
// token's embedding row, or the depth fork's recorded residual.
func (p *pass) enter(a, b int) {
	m, d := p.m, p.m.Cfg.DModel
	for i := a; i < b; i++ {
		row := &p.rows[i]
		if p.from > 0 {
			copy(p.sk.x.Row(i), row.st.base.depth.at(p.from, row.pos, d))
			continue
		}
		if rec := row.st.rec; rec.covers(row.pos) {
			rec.toks[row.pos-rec.lo] = row.tok
		}
		tok := row.tok
		if tok < 0 || tok >= m.Cfg.Vocab {
			tok = 0
		}
		copy(p.sk.x.Row(i), row.st.embedding(m, tok))
	}
}

// record keeps each recording row's residual entering sublayer s > 0
// (sublayer 0's is the embedding row: no fork starts there).
func (p *pass) record(s, a, b int) {
	for i := a; i < b; i++ {
		if rec := p.rows[i].st.rec; rec.covers(p.rows[i].pos) {
			copy(rec.at(s, p.rows[i].pos, p.m.Cfg.DModel), p.sk.x.Row(i))
		}
	}
}

// norm RMS-normalises rows [a, b) of t in place, each with the gain its
// row reads for ref.
func (p *pass) norm(t *tensor.Tensor, ref LayerRef, gain []float32, a, b int) {
	for i := a; i < b; i++ {
		tensor.RMSNormRow(t.Row(i), p.rows[i].st.gain(ref, gain), p.m.Cfg.Eps)
	}
}

// addRows adds rows [a, b) of src into dst.
func addRows(dst, src *tensor.Tensor, a, b int) {
	d, s := span(dst, a, b), span(src, a, b)
	for j := range d {
		d[j] += s[j]
	}
}

// qkv is block bi's attention up to the join: the pre-attention norm,
// the Q/K/V projections, RoPE, and each row's K/V write.
func (p *pass) qkv(bi, a, b int) {
	m, sk, blk := p.m, p.sk, p.m.Blocks[bi]
	if bi > 0 {
		p.record(2*bi, a, b)
	}
	copy(span(sk.h, a, b), span(sk.x, a, b))
	p.norm(sk.h, LayerRef{bi, KindAttnNorm, -1}, blk.AttnNorm, a, b)

	m.linearRows(sk, p.rows, LayerRef{bi, KindQ, -1}, blk.Wq, sk.h, sk.q, a, b)
	m.linearRows(sk, p.rows, LayerRef{bi, KindK, -1}, blk.Wk, sk.h, sk.kb, a, b)
	m.linearRows(sk, p.rows, LayerRef{bi, KindV, -1}, blk.Wv, sk.h, sk.vb, a, b)

	for i := a; i < b; i++ {
		row := &p.rows[i]
		m.applyRoPE(sk.q.Row(i), row.pos)
		m.applyRoPE(sk.kb.Row(i), row.pos)
		row.st.appendKV(bi, row.pos, sk.kb.Row(i), sk.vb.Row(i))
	}
}

// attend is block bi's attention after the join: each row's heads over
// its state's K/V rows, its attention hooks, the out-projection and the
// residual add.
func (p *pass) attend(bi, a, b int) {
	m, sk, blk := p.m, p.sk, p.m.Blocks[bi]
	attnRef := LayerRef{bi, KindAttnAct, -1}
	hd := m.Cfg.HeadDim()
	for i := a; i < b; i++ {
		row := &p.rows[i]
		m.attendAt(row.st, bi, row.pos, sk.q.Row(i), sk.a.Row(i), sk.scores.Row(i), sk.qf[i*hd:(i+1)*hd])
		for _, h := range row.st.AttnHooks {
			h(attnRef, row.pos, sk.a.Row(i))
		}
	}
	m.linearRows(sk, p.rows, LayerRef{bi, KindOut, -1}, blk.Wo, sk.a, sk.h, a, b)
	addRows(sk.x, sk.h, a, b)
}

// mlp is block bi's MLP or MoE sublayer, residual add included.
func (p *pass) mlp(bi, a, b int) {
	m, sk, blk := p.m, p.sk, p.m.Blocks[bi]
	p.record(2*bi+1, a, b)
	copy(span(sk.h, a, b), span(sk.x, a, b))
	p.norm(sk.h, LayerRef{bi, KindMLPNorm, -1}, blk.MLPNorm, a, b)

	if blk.Router != nil {
		m.linearRows(sk, p.rows, LayerRef{bi, KindRouter, -1}, blk.Router, sk.h, sk.r, a, b)
		for i := a; i < b; i++ {
			m.moeMix(sk, &p.rows[i], i, blk, bi)
		}
	} else {
		m.linearRows(sk, p.rows, LayerRef{bi, KindGate, -1}, blk.MLP.WGate, sk.h, sk.ff1, a, b)
		m.linearRows(sk, p.rows, LayerRef{bi, KindUp, -1}, blk.MLP.WUp, sk.h, sk.ff2, a, b)
		tensor.SiLUMul(span(sk.ffa, a, b), span(sk.ff1, a, b), span(sk.ff2, a, b))
		m.linearRows(sk, p.rows, LayerRef{bi, KindDown, -1}, blk.MLP.WDown, sk.ffa, sk.d, a, b)
	}
	addRows(sk.x, sk.d, a, b)
}

// trace appends, for every traced row of rows [r0, r1) in row order, the
// experts each MoE block whose MLP the pass ran selected for it: a
// state's expert trace is an append log, and its rows' shards may have
// routed them in any order.
func (p *pass) trace(r0, r1 int) {
	cfg := &p.m.Cfg
	if !cfg.IsMoE() {
		return
	}
	k := min(cfg.TopK, cfg.NumExperts)
	for i := r0; i < r1; i++ {
		tr := p.rows[i].st.ExpertTrace
		if tr == nil {
			continue
		}
		for bi := p.from / 2; bi < len(p.m.Blocks); bi++ {
			if p.m.Blocks[bi].Router != nil {
				tr[bi] = append(tr[bi], p.sk.selAt(bi, i, k)...)
			}
		}
	}
}
