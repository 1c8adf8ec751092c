package core

import (
	"errors"
	"fmt"

	"repro/internal/faults"
)

// Sentinel configuration errors. Campaign validation wraps these with
// detail, so callers test with errors.Is.
var (
	// ErrNoTrials reports a campaign configured with Trials <= 0.
	ErrNoTrials = errors.New("core: campaign needs Trials > 0")
	// ErrEmptySuite reports a task suite with no instances.
	ErrEmptySuite = errors.New("core: task suite has no instances")
	// ErrContextTooSmall reports a model whose context window cannot fit
	// the suite's longest prompt plus generation budget.
	ErrContextTooSmall = errors.New("core: model context window smaller than the suite needs")
	// ErrCheckpointMismatch reports a resume checkpoint whose fingerprint
	// does not match the campaign being resumed.
	ErrCheckpointMismatch = errors.New("core: checkpoint does not match this campaign")
	// ErrBaselineNoPrefix reports a WithBaseline baseline without the
	// prefix snapshots the campaign's trials fork from — a Result's
	// scores-only copy instead of a BaselineReady one.
	ErrBaselineNoPrefix = errors.New("core: supplied baseline has no prefix snapshots (scores-only copy?)")
)

// TrialError locates a worker failure at the trial that caused it: the
// trial index, the sampled injection site, and the underlying error. The
// campaign runtime propagates the first TrialError through the event
// stream as soon as the worker hits it.
type TrialError struct {
	// Index is the failing trial's index within the campaign.
	Index int
	// Site is the injection site the trial sampled before failing.
	Site faults.Site
	Err  error
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("core: trial %d (site %v): %v", e.Index, e.Site, e.Err)
}

func (e *TrialError) Unwrap() error { return e.Err }
