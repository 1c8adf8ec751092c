package model

import (
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// DecodeRow is one in-flight trial's slot in a decode batch: its private
// KV-cache state over the shared weights, the token to decode this step,
// the trial's own observation context (fault hook, extra hooks, probe,
// ABFT checker), and the buffer its next-token logits are copied into.
//
// One row's observers fire in the serial order, on one goroutine per
// step. Observers of different rows may run concurrently inside a step
// (Batch.Step shards its rows), so whatever they touch must be private
// to the row or synchronised — as mitigate.Restrictor's atomic counters
// are. That is the rule concurrent campaign workers already put on
// anything shared between trials.
type DecodeRow struct {
	// St is the trial's inference state. It must be bound to the same
	// model the Batch was created from (ForkFor onto the worker clone).
	St *State
	// Tok is the token to decode this step.
	Tok int
	// Hooks fire on every linear-layer output of this row only, in
	// order — the per-row analogue of Model.AddHook. The model's own
	// registered hooks do NOT fire during Batch.Step; a scheduler that
	// wants them must place them in each row's slice.
	Hooks []Hook
	// Checker, when non-nil, verifies this row's linear outputs — the
	// per-row analogue of Model.SetChecker.
	Checker LinearChecker
	// AttnHooks fire on this row's post-attention activation (kind
	// KindAttnAct) each block, after the head mix and before out_proj —
	// the per-row analogue of Model.AddAttnHook. Empty slices cost
	// nothing: the batched step is bit-identical with no hooks present.
	AttnHooks []Hook
	// Logits receives the row's next-token logits (len Vocab). The row
	// owns the buffer; it is overwritten each step.
	Logits []float32
}

// Batch is a continuous-batching decode engine: capacity-sized activation
// scratch over one model's weights, stepping up to capacity independent
// trial states through one stacked forward pass (forwardStack) per token.
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
// model's registered hooks, attention hooks and checker are ignored; each
// row's own Hooks/AttnHooks/Checker observe its rows (see DecodeRow).
//
// The rows are split into min(threads, len(rows)) contiguous ranges (the
// model's SetThreads budget) and each range runs the whole forward pass
// on its own goroutine, the first on the caller's: one fork–join per
// step, not one per GEMM, because a 16-row GEMM is too small to repay a
// fork–join of its own. One thread is the one-range case of the same code.
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
		views[i] = stackRow{
			st: row.St, pos: row.St.Pos, tok: row.Tok,
			rc:        rowCtx{hooks: row.Hooks, checker: row.Checker},
			attnHooks: row.AttnHooks,
		}
	}

	shards := min(m.matmulThreads(), n)
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			b.stepRange(rows, r0, r1)
		}(s*n/shards, (s+1)*n/shards)
	}
	b.stepRange(rows, 0, n/shards)
	wg.Wait()
	// A Batch outlives the trials it steps: a view left in place would pin
	// a finished trial's State and checker until the slot is next filled.
	clear(views)
}

// stepRange runs the whole forward pass for rows [r0, r1) and hands each
// its logits: it reads and writes only those rows of the scratch, those
// rows' States and observers, and (read-only) the model's weights and
// tables, so ranges run concurrently without synchronisation. Its GEMMs
// run serially — the step's thread budget is already spent on the ranges.
func (b *Batch) stepRange(rows []*DecodeRow, r0, r1 int) {
	m := b.m
	m.forwardStack(b.sk, b.rows, r0, r1, 1)
	m.linearRows(b.rows, LayerRef{-1, KindLMHead, -1}, m.LMHead, b.sk.x, b.l, r0, r1, 1)
	for i := r0; i < r1; i++ {
		copy(rows[i].Logits, b.l.Row(i))
		rows[i].St.Pos++
	}
}
