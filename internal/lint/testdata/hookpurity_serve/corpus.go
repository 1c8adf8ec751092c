// Package hookpurity_serve is the serving-engine corpus for the
// hookpurity analyzer: the live engine (repro/internal/serve) arms one
// fault hook per admitted request on a model shared by every in-flight
// stream, so a hook that stores through the engine's model corrupts
// other requests' computations — exactly the class of bug the analyzer
// exists to catch at review. Look-alike types suffice: the analyzer
// matches named types, not import paths.
package hookpurity_serve

// LayerRef, Tensor, and Model mirror the repro/internal/model types by
// name.
type LayerRef struct{ Block, Kind int }

type Tensor struct{ data []float32 }

func (t *Tensor) Set(i, j int, v float64) {}

type Model struct {
	steps int
	W     *Tensor
}

// Engine mirrors the serving engine: one shared model, many in-flight
// requests, one armed hook per request.
type Engine struct {
	m *Model
}

// request carries per-request state a hook may freely own.
type request struct {
	id    string
	fired bool
}

// armClean installs the sanctioned shape: the hook flips its own output
// row and records the strike in request-owned state.
func (e *Engine) armClean(req *request) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		out[0] = -out[0]
		req.fired = true
	}
}

// armCounting stores through the engine's shared model from inside the
// hook: flagged — every other in-flight request sees the mutation.
func (e *Engine) armCounting(req *request) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		e.m.steps++ // want `stores to model-reachable memory`
		out[0] = 0
	}
}

// armWeightPatch "repairs" a weight from inside the hook: flagged —
// nothing writes weights at run time (a weight fault is a strike its row
// reads); a hook-side store would leak into every stream.
func (e *Engine) armWeightPatch() func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		e.m.W.Set(0, 0, 1) // want `hook calls Set on a weight tensor`
	}
}
