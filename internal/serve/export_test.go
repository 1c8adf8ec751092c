package serve

import (
	"context"

	"repro/internal/faults"
	"repro/internal/gen"
)

// Status indexes re-exported for the external scenario tests
// (package serve_test imports loadgen, which imports serve, so those
// tests cannot live in-package).
const (
	StatusOKForTest       = statusOK
	StatusInvalidForTest  = statusInvalid
	StatusDeadlineForTest = statusDeadline
	StatusCanceledForTest = statusCanceled
	StatusDrainingForTest = statusDraining
)

// SampleSiteForTest exposes the campaign-mode site a request will be
// armed with, so a scenario test can arm the identical fault on its own
// reference clone. req.MaxNew must be set.
func (e *Engine) SampleSiteForTest(req Request) (faults.Site, error) {
	return e.sampleSite(&req)
}

// ChecksForTest arms req's campaign fault the way admission does — the
// engine's own arm, on a lane over a private clone — decodes it to the
// end and returns the site and how many ABFT checks the request's
// checker ran: Response carries only the flagged ones. req.MaxNew must
// be set, and the engine must have Inject.ABFT.
func (e *Engine) ChecksForTest(req Request) (faults.Site, int, error) {
	site, err := e.sampleSite(&req)
	if err != nil {
		return site, 0, err
	}
	wm := e.m.CloneShared()
	st := wm.NewState()
	prefix := st.Prefill(req.Prompt)
	ln := &lane{loop: gen.NewLoop[*flight](wm, 1), m: wm}
	f := &flight{p: &pending{req: req, ctx: context.Background(), site: &site}}
	arm, err := e.arm(ln, f)
	if err != nil {
		return site, 0, err
	}
	s := ln.loop.Admit(st, prefix, gen.Defaults(req.MaxNew), arm, f)
	for !s.Done() {
		ln.loop.Step()
	}
	f.inj.Disarm()
	return site, f.checker.Stats().Checks, nil
}
