package gen

import "repro/internal/model"

// Arm is what a caller arms on one admitted sequence. Every observer is
// scoped to that sequence's batch row: it sees, and may strike, only
// that sequence's activations — its prompt's too, when the loop prefills
// it (AdmitPrompt). A Loop runs its sequences' observers on the caller's
// goroutine, but separate loops over one model's weights (lanes) run at
// once, and a prefill may check its positions in shards
// (model.Observers), so state observers share must be synchronised;
// BeforeStep runs on the caller's goroutine, before the step.
type Arm struct {
	model.Observers
	// BeforeStep, when non-nil, runs on the sequence's state immediately
	// before each of its decode steps — where KV-cache strikes land.
	BeforeStep func(*model.State)
}

// Seq is one decode riding a Loop — greedy, a beam search whose
// hypotheses take turns on its row, or a scorer's teacher-forced one.
// Owner is the caller's record of it (a campaign trial, a served request).
type Seq[T any] struct {
	Owner T

	row        *model.DecodeRow
	sp         Stepper
	beforeStep func(*model.State)
	live       bool
	owned      bool // the loop allocated the state, and recycles it
}

// Done reports whether the decode is over: Result is final and the
// sequence no longer occupies a row of the loop.
func (s *Seq[T]) Done() bool { return !s.live }

// Result returns the generation so far (partial until Done).
func (s *Seq[T]) Result() Result { return s.sp.Result() }

// State returns the sequence's inference state — a beam search's, the
// state of the hypothesis it decoded last; invalid after Release.
func (s *Seq[T]) State() *model.State { return s.row.St }

// next feeds the row's current state and logits to the stepper and
// queues the state and token it chose for the next step.
func (s *Seq[T]) next(maxSeq int) bool {
	s.row.St, s.row.Tok, s.live = s.sp.step(s.row.St, s.row.Logits, maxSeq)
	return s.live
}

// Loop is the continuous-batching decode loop, and the only decode
// driver besides the serial one GenerateFrom and ScoreOption run (the
// seed oracle the golden tests compare it against). It owns the
// model.Batch, the live rows, row recycling and every Stepper step;
// callers admit sequences — prefilled, forked at a resume point, or with
// a prompt the loop prefills — step all live ones, and collect those that
// finish. Serial decode is the width-1 case.
//
// The bit-identity argument lives here and is made once. Each sequence
// is one Stepper fed exactly the logits the serial loop would feed it:
// first the prefix logits (Admit), then each Batch.Step output for its
// own row. A prompt the loop prefills (AdmitPrompt) runs State.Prefill's
// one body under the row's observers instead of the model's, so its
// logits, KV rows and observations are those of State.Prefill on a model
// carrying them. A sequence admitted at a resume point (AdmitFork) starts
// on a Stepper that has already been fed exactly the logits GenerateFrom
// would have fed it — by the decode the point was recorded on — over a
// KV cache holding exactly the rows that decode had written by then: it
// is the same sequence from that step on, and what the caller arms on the
// row observes that step and the ones after it. Batch.Step computes every
// row in MatVec accumulation order with only that row's hooks and checker
// observing it (model.Batch's contract), so which other sequences share a
// step — and therefore admission order, width, scheduling, and which
// loop a sequence rides — cannot change any sequence's tokens, hook
// observations or checker verdicts; only wall-clock. A beam
// search steps one hypothesis per Step, on the state the serial loop
// would step next, so its hypotheses never share a step: they take turns
// on their sequence's row, in the serial loop's order.
//
// A Loop must not be shared between goroutines, and everything it does
// runs on the caller's: admission, BeforeStep, the step's forward pass
// (model.Batch.Step never shards), every Stepper step. A thread budget is
// spent on lanes instead: one Loop per goroutine, each at one thread and
// a share of the width, over the same weights (a model, or CloneShared
// clones of it), drawing from one work queue. Lanes never join per step,
// so one that waits for its core holds up only its own rows; which lane a
// sequence rides changes nothing in it, by the argument above.
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

// Admit starts a decode under s (NewStepper) on st, a state bound to the
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
	seq.sp = NewStepper(s)
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
// its first Step is the decode's step at that position. depth > 0 forks
// in depth too (model.Prefix.ForkDepth): while the tokens it decodes
// match from's, each step skips the sublayers below depth, which from's
// depth planes must cover at the point; depth ≤ 0 forks in time only. A
// point the decode ended on comes back Done.
func (l *Loop[T]) AdmitFork(from *model.Prefix, at Resume, depth int, arm Arm, owner T) *Seq[T] {
	row := l.takeRow()
	row.St = from.ForkDepth(l.m, row.St, at.pos, max(depth, 0))
	seq := l.seat(row, arm, owner)
	seq.sp, seq.row.Tok, seq.live, seq.owned = at.sp, at.tok, at.live, true
	if seq.live {
		l.live = append(l.live, seq)
	}
	return seq
}

// AdmitPrompt starts the decode sp — a NewStepper, or a Scorer —
// that computes its prompt on its own row: the loop prefills prompt under
// arm's observers — every position, so a weight-resident strike reaches
// the prompt too — and feeds sp its logits as Admit does. The state is a
// depth fork of from at sublayer depth (model.Prefix.ForkDepth), which
// skips the sublayers below depth while the prompt matches from's, or an
// empty state when from is nil or depth negative; either way it reuses a
// released row's state, as AdmitFork's does. On an MoE model the state
// traces its expert selections (model.State.ExpertTrace), as a fork of a
// tracing prefix inherits.
func (l *Loop[T]) AdmitPrompt(from *model.Prefix, depth int, prompt []int, sp Stepper, arm Arm, owner T) *Seq[T] {
	row := l.takeRow()
	switch {
	case from != nil && depth >= 0:
		row.St = from.ForkDepth(l.m, row.St, 0, depth)
	case row.St != nil:
		row.St.Reset()
	default:
		row.St = l.m.NewState()
	}
	if l.m.Cfg.IsMoE() && row.St.ExpertTrace == nil {
		row.St.EnableExpertTrace()
	}
	seq := l.seat(row, arm, owner)
	seq.owned = true
	row.Prefill(prompt)
	seq.sp = sp
	if seq.next(l.m.Cfg.MaxSeq) {
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
	*row = model.DecodeRow{St: row.St, Observers: arm.Observers, Logits: row.Logits}
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
	if !s.owned {
		s.row.St = nil // the caller's state: nothing to reuse, so do not pin it
	}
	l.free = append(l.free, s.row)
	s.row = nil
}
