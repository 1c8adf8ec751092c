package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// DecodeRow is one in-flight trial's slot in a decode batch: its private
// KV-cache state over the shared weights, the token to decode this step,
// the trial's own Observers (fault, extra hooks, probe, ABFT checker), and
// the buffer its next-token logits are copied into. Observers of
// different rows may run concurrently inside a step (Batch.Step shards
// its rows); Observers has the rule.
type DecodeRow struct {
	// St is the trial's inference state. It must be bound to the same
	// model the Batch was created from (ForkFor onto the worker clone).
	St *State
	// Tok is the token to decode this step.
	Tok int
	// Observers watch, and a Strike strikes, this row only: the model's
	// own do not fire during Batch.Step or the row's Prefill. Rows with
	// different strikes share one step: none of them writes a weight.
	Observers
	// Logits receives the row's next-token logits (len Vocab). The row
	// owns the buffer; it is overwritten each step.
	Logits []float32
}

// Batch is a continuous-batching decode engine: capacity-sized activation
// scratch over one model's weights, stepping up to capacity independent
// trial states through one stacked forward pass (forwardStack) per token.
// Its rows are independent, so it shards them itself (Step) and its
// passes never shard: a pass shards a prefill's positions.
// Each row reads and writes only its own State and its own rows of the
// scratch, and its own hooks and checker observe only its own activation
// rows, so nothing a row computes, shows a hook or hands a checker depends
// on which rows share its step or on how Step shards them over goroutines
// — every value is bit-identical to the same trial stepping alone through
// State.DecodeStep. A Batch must not be shared between goroutines; the
// goroutines Step starts are its own and have exited when it returns.
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
// state advanced by one. Rows may sit at different positions. The
// model's own Observers are ignored; each row's observe its rows (see
// DecodeRow).
//
// Up to min(threads, len(rows)) goroutines (the model's SetThreads
// budget), the first the caller's, take the rows one at a time, each
// running a row's whole forward pass: one fork–join per step, not one per
// GEMM, because a 16-row GEMM is too small to repay a fork–join of its
// own, and a goroutine that starts late (its core was busy) takes fewer
// rows instead of holding the step up. One thread runs every row as one
// stacked pass.
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
	// Contract violations panic here, on the caller's goroutine, before
	// any shard starts.
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
		views[i] = row.St.row(row.St.Pos, row.Tok, &row.Observers)
	}

	if shards := min(m.threadBudget(), n); shards > 1 {
		b.stepShared(rows, shards)
	} else {
		b.stepRange(rows, 0, n)
	}
	// A Batch outlives the trials it steps: a view left in place would pin
	// a finished trial's State and checker until the slot is next filled.
	clear(views)
}

// stepShared runs the rows on shards goroutines, the caller's first, each
// taking the next unclaimed row until none is left. It is its own
// function so that its counter, closure and WaitGroup are allocated only
// by a sharded step: one thread allocates nothing.
func (b *Batch) stepShared(rows []*DecodeRow, shards int) {
	var next atomic.Int64
	work := func() {
		for {
			r := int(next.Add(1)) - 1
			if r >= len(rows) {
				return
			}
			b.stepRange(rows, r, r+1)
		}
	}
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// stepRange runs the whole forward pass for rows [r0, r1) and hands each
// its logits: it reads and writes only those rows of the scratch, those
// rows' States and observers, and (read-only) the model's weights and
// tables, so ranges run concurrently without synchronisation. Its GEMMs
// run serially — the step's thread budget is already spent on the ranges.
func (b *Batch) stepRange(rows []*DecodeRow, r0, r1 int) {
	m := b.m
	m.forwardStack(b.sk, b.rows, r0, r1)
	m.linearRows(b.rows, LayerRef{-1, KindLMHead, -1}, m.LMHead, b.sk.x, b.l, r0, r1)
	for i := r0; i < r1; i++ {
		copy(rows[i].Logits, b.l.Row(i))
		rows[i].St.Pos++
	}
}
