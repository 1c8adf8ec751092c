package gen

import "repro/internal/model"

// Arm is what a caller arms on one admitted sequence. Every observer is
// scoped to that sequence's batch row: it sees, and may strike, only
// that sequence's activations. Observers of different sequences may run
// concurrently inside one Step (model.DecodeRow), so state they share
// must be synchronised; BeforeStep runs on the caller's goroutine, before
// the step.
type Arm struct {
	// Hooks fire on each linear-layer output, in order.
	Hooks []model.Hook
	// AttnHooks fire on each block's post-attention activation.
	AttnHooks []model.Hook
	// Checker verifies each linear-layer output (nil = unchecked).
	Checker model.LinearChecker
	// BeforeStep, when non-nil, runs on the sequence's state immediately
	// before each of its decode steps — where KV-cache strikes land.
	BeforeStep func(*model.State)
}

// Seq is one greedy decode riding a Loop. Owner is the caller's record
// of it (a campaign trial, a served request).
type Seq[T any] struct {
	Owner T

	row        *model.DecodeRow
	sp         Stepper
	beforeStep func(*model.State)
	live       bool
	forked     bool // the loop allocated the state, and recycles it
}

// Done reports whether the decode is over: Result is final and the
// sequence no longer occupies a row of the loop.
func (s *Seq[T]) Done() bool { return !s.live }

// Result returns the generation so far (partial until Done).
func (s *Seq[T]) Result() Result { return s.sp.Result() }

// State returns the sequence's inference state; invalid after Release.
func (s *Seq[T]) State() *model.State { return s.row.St }

// next feeds the row's current logits to the stepper and queues the
// chosen token for the next step.
func (s *Seq[T]) next(maxSeq int) bool {
	s.row.Tok, s.live = s.sp.Next(s.row.Logits, s.row.St.Pos, maxSeq)
	return s.live
}

// Loop is the continuous-batching greedy decode loop, and the only
// greedy decode driver besides ContinueGreedy (the seed oracle the
// golden tests compare it against). It owns the model.Batch, the live
// rows, row recycling and every Stepper.Next call; callers admit
// prefilled sequences, step all live ones, and collect those that
// finish. Serial decode is the width-1 case.
//
// The bit-identity argument lives here and is made once. Each sequence
// is one Stepper fed exactly the logits ContinueGreedy would feed it:
// first the prefix logits (Admit), then each Batch.Step output for its
// own row. A sequence admitted at a resume point (AdmitFork) starts on a
// Stepper that has already been fed exactly the logits ContinueGreedy
// would have fed it — by the decode the point was recorded on — over a
// KV cache holding exactly the rows that decode had written by then: it
// is the same sequence from that step on, and what the caller arms on the
// row observes that step and the ones after it. Batch.Step computes every
// row in MatVec accumulation order with only that row's hooks and checker
// observing it (model.Batch's contract), so which other sequences share a
// step — and therefore admission order, width, scheduling, and how many
// threads the step shards its rows over — cannot change any sequence's
// tokens, hook observations or checker verdicts; only wall-clock.
//
// A Loop must not be shared between goroutines. Everything but the
// forward pass inside Step — admission, BeforeStep, every Stepper.Next —
// runs on the caller's.
type Loop[T any] struct {
	m    *model.Model
	bt   *model.Batch
	live []*Seq[T]
	done []*Seq[T]
	rows []*model.DecodeRow
	free []*model.DecodeRow
}

// NewLoop builds a decode loop of the given width (≤1 ⇒ 1) over m.
func NewLoop[T any](m *model.Model, width int) *Loop[T] {
	if width < 1 {
		width = 1
	}
	return &Loop[T]{m: m, bt: m.NewBatch(width)}
}

// Len returns the number of live sequences; Free how many more Admit
// will take.
func (l *Loop[T]) Len() int  { return len(l.live) }
func (l *Loop[T]) Free() int { return l.bt.Capacity() - len(l.live) }

// Live returns the live sequences, valid until the next Admit, Step or
// Drop.
func (l *Loop[T]) Live() []*Seq[T] { return l.live }

// Admit starts a greedy decode under s on st, a state bound to the
// loop's model and prefilled so that logits are its last output. The
// caller keeps ownership of logits; the loop owns st until Release. The
// first token is chosen here, off the prefix logits: a sequence that
// ends on it (zero budget, immediate stop) comes back Done without ever
// occupying a row.
func (l *Loop[T]) Admit(st *model.State, logits []float32, s Settings, arm Arm, owner T) *Seq[T] {
	row := l.takeRow()
	row.St = st
	seq := l.seat(row, arm, owner)
	copy(row.Logits, logits)
	seq.sp = Stepper{s: s}
	if seq.next(l.m.Cfg.MaxSeq) {
		l.live = append(l.live, seq)
	}
	return seq
}

// AdmitFork re-enters a finished greedy decode at one of its resume
// points: the sequence takes a fork of from — a snapshot of the state
// that decode finished on — at the point's position, reading the rows
// below it by reference (and reusing a released fork's state for the rows
// it appends), a copy of the point's Stepper with its token queued, and
// its first Step is the decode's step at that position. A point the
// decode ended on comes back Done.
func (l *Loop[T]) AdmitFork(from *model.Prefix, at Resume, arm Arm, owner T) *Seq[T] {
	row := l.takeRow()
	row.St = from.ForkInto(l.m, row.St, at.pos)
	seq := l.seat(row, arm, owner)
	seq.sp, seq.row.Tok, seq.live, seq.forked = at.sp, at.tok, at.live, true
	if seq.live {
		l.live = append(l.live, seq)
	}
	return seq
}

func (l *Loop[T]) takeRow() *model.DecodeRow {
	if l.Free() == 0 {
		panic("gen: Admit on a full decode loop")
	}
	if n := len(l.free); n > 0 {
		row := l.free[n-1]
		l.free = l.free[:n-1]
		return row
	}
	return &model.DecodeRow{Logits: make([]float32, l.m.Cfg.Vocab)}
}

// seat arms row for a new tenant. A recycled row is re-armed whole: any
// observer slot left standing would strike the next tenant.
func (l *Loop[T]) seat(row *model.DecodeRow, arm Arm, owner T) *Seq[T] {
	*row = model.DecodeRow{
		St: row.St, Logits: row.Logits,
		Hooks: arm.Hooks, AttnHooks: arm.AttnHooks, Checker: arm.Checker,
	}
	return &Seq[T]{Owner: owner, row: row, beforeStep: arm.BeforeStep}
}

// Step decodes one token for every live sequence in one stacked forward
// pass and returns the sequences that finished on it (valid until the
// next Step); the rest stay live.
func (l *Loop[T]) Step() []*Seq[T] {
	l.rows = l.rows[:0]
	for _, s := range l.live {
		if s.beforeStep != nil {
			s.beforeStep(s.row.St)
		}
		l.rows = append(l.rows, s.row)
	}
	l.bt.Step(l.rows)

	// Stale slots of the reused slices are cleared: a finished sequence's
	// owner (and the state it holds) must not stay reachable from here.
	clear(l.done)
	l.done = l.done[:0]
	keep := l.live[:0]
	for _, s := range l.live {
		if s.next(l.m.Cfg.MaxSeq) {
			keep = append(keep, s)
		} else {
			l.done = append(l.done, s)
		}
	}
	clear(l.live[len(keep):])
	l.live = keep
	return l.done
}

// Drop abandons every live sequence for which cancelled reports true
// (called once per live sequence, in row order). A dropped sequence is
// Done with the partial Result it had reached.
func (l *Loop[T]) Drop(cancelled func(*Seq[T]) bool) {
	keep := l.live[:0]
	for _, s := range l.live {
		if cancelled(s) {
			s.live = false
		} else {
			keep = append(keep, s)
		}
	}
	clear(l.live[len(keep):])
	l.live = keep
}

// Release hands a Done sequence's row buffers back for reuse. Result
// stays readable; State does not.
func (l *Loop[T]) Release(s *Seq[T]) {
	if !s.forked {
		s.row.St = nil // the caller's state: nothing to reuse, so do not pin it
	}
	l.free = append(l.free, s.row)
	s.row = nil
}
