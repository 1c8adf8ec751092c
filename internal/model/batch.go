package model

import (
	"fmt"

	"repro/internal/tensor"
)

// DecodeRow is one in-flight trial's slot in a decode batch: its private
// KV-cache state over the shared weights, which carries the trial's own
// Observers (fault, extra hooks, probe, ABFT checker), the token to decode
// this step, and the buffer its next-token logits are copied into. A step
// runs its rows on the caller's goroutine, so a row's observers fire in
// its serial order there.
type DecodeRow struct {
	// St is the trial's inference state. It must be bound to the same
	// model the Batch was created from (ForkForInto onto the worker
	// clone). Its Observers watch, and a Strike strikes, this row only:
	// rows with different strikes share one step, since none of them
	// writes a weight.
	St *State
	// Tok is the token to decode this step.
	Tok int
	// Logits receives the row's next-token logits (len Vocab). The row
	// owns the buffer; it is overwritten each step.
	Logits []float32
}

// Batch is a continuous-batching decode engine: capacity-sized activation
// scratch over one model's weights, stepping up to capacity independent
// trial states through one stacked forward pass (forwardStack) per token,
// on the caller's goroutine. A thread budget buys more batches, not a
// sharded step: independent loops, each with its own Batch over shared
// weights (gen.Loop's lanes), never wait on one another, where a step
// sharded over goroutines would join them every token.
// Each row reads and writes only its own State and its own rows of the
// scratch, and its state's hooks and checker observe only its own
// activation rows, so nothing a row computes, shows a hook or hands a
// checker depends on which rows share its step — every value is bit-identical to the same
// trial stepping alone through State.DecodeStep. A Batch must not be
// shared between goroutines.
type Batch struct {
	m    *Model
	sk   *stack
	l    *tensor.Tensor // capacity × Vocab
	rows []stackRow     // capacity views, filled for one Step and cleared after it
}

// NewBatch allocates a decode batch engine of the given capacity over m.
func (m *Model) NewBatch(capacity int) *Batch {
	if capacity < 1 {
		panic("model: batch capacity must be at least 1")
	}
	return &Batch{
		m:    m,
		sk:   m.newStack(capacity),
		l:    tensor.New(capacity, m.Cfg.Vocab),
		rows: make([]stackRow, capacity),
	}
}

// Capacity returns the maximum number of rows a Step may carry.
func (b *Batch) Capacity() int { return len(b.rows) }

// Step decodes one token for every row: each row's Tok enters at its
// state's position, the linear layers run as stacked GEMMs over the rows,
// and each row's next-token logits land in its Logits buffer with its
// state advanced by one. Rows may sit at different positions. Each row
// runs under its state's Observers (DecodeRow). The rows run as one stacked pass on the caller's goroutine,
// whatever the model's thread budget: a 16-row step is too small to repay
// a fork–join of its own.
func (b *Batch) Step(rows []*DecodeRow) {
	n := len(rows)
	if n == 0 {
		return
	}
	if n > len(b.rows) {
		panic(fmt.Sprintf("model: decode batch of %d exceeds capacity %d", n, len(b.rows)))
	}
	m := b.m
	cfg := &m.Cfg
	for _, row := range rows {
		if row.St.m != m {
			panic("model: decode row state bound to a different model")
		}
		if row.St.Pos >= cfg.MaxSeq {
			panic(fmt.Sprintf("model: context overflow (max %d)", cfg.MaxSeq))
		}
		if len(row.Logits) != cfg.Vocab {
			panic("model: decode row logits buffer has wrong length")
		}
		row.St.reserveNext(1)
	}
	views := b.rows[:n]
	for i, row := range rows {
		views[i] = row.St.row(row.St.Pos, row.Tok)
	}
	m.forwardStack(b.sk, views, 0, n)
	m.linearRows(b.sk, views, LayerRef{-1, KindLMHead, -1}, m.LMHead, b.sk.x, b.l, 0, n)
	for i, row := range rows {
		copy(row.Logits, b.l.Row(i))
		row.St.Pos++
	}
	// A Batch outlives the trials it steps: a view left in place would pin
	// a finished trial's State and checker until the slot is next filled.
	clear(views)
}
