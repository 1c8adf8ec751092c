package serve

import "repro/internal/faults"

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
