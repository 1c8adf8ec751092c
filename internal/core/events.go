package core

import (
	"time"

	"repro/internal/outcome"
	"repro/internal/trace"
)

// Event is one item of a campaign's live event stream (Runner.Stream).
// Concrete types: BaselineReady, TrialDone, Progress, CampaignDone. The
// stream is ordered per campaign — BaselineReady first, then TrialDone
// and Progress interleaved as workers complete trials out of order, and
// exactly one terminal CampaignDone before the channel closes.
type Event interface{ isEvent() }

// BaselineReady reports the completed fault-free baseline evaluation —
// the first event of every stream, emitted before any trial runs. It
// carries the full baseline, prefix snapshots included: the one to hand
// WithBaseline (Result.Baseline is the scores-only copy).
type BaselineReady struct {
	Baseline *Baseline
}

// TrialDone reports one completed injection trial. Trials finish out of
// order; Index is the trial's position in Result.Trials.
type TrialDone struct {
	// Index is the trial index within the campaign.
	Index int
	// Worker identifies the pool worker that ran the trial.
	Worker int
	Trial  Trial
	// Trace is the trial's propagation record when the runner traced it
	// (WithTrace sampling); nil otherwise. It is not part of Result — the
	// trace sink and the event stream are its only outlets.
	Trace *trace.Record
}

// Progress is a periodic aggregate snapshot of a running campaign,
// emitted after trial completions (every Runner progress interval).
type Progress struct {
	// Done counts completed trials, including any restored from a resume
	// checkpoint; Total is the campaign's trial count.
	Done, Total int
	// TrialsPerSec is the throughput of this run (resumed trials are not
	// counted as work).
	TrialsPerSec float64
	// Fired counts trials whose fault actually struck.
	Fired int
	// Tally are the outcome-class counts so far.
	Tally outcome.Tally
	// Elapsed is the wall time since the worker pool started.
	Elapsed time.Duration
}

// Pct returns completion in percent.
func (p Progress) Pct() float64 {
	if p.Total == 0 {
		return 0
	}
	return 100 * float64(p.Done) / float64(p.Total)
}

// ETA estimates the remaining wall time from the current throughput.
func (p Progress) ETA() time.Duration {
	if p.TrialsPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(p.Total-p.Done) / p.TrialsPerSec * float64(time.Second))
}

// CampaignDone is the terminal event of a stream: the completed Result,
// or the error (first worker failure, checkpoint write failure, or
// ctx.Err() after a cancellation) that ended the campaign.
type CampaignDone struct {
	Result *Result
	Err    error
}

func (BaselineReady) isEvent() {}
func (TrialDone) isEvent()     {}
func (Progress) isEvent()      {}
func (CampaignDone) isEvent()  {}
