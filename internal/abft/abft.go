// Package abft implements online algorithm-based fault tolerance for the
// model's linear layers: every protected GEMM output row is verified
// against precomputed float64 checksums of the clean weights, in the
// style of the ReaLM line of work the paper's related-work section
// discusses. A Checker plugs into model.SetChecker, so the check runs
// after the fault-injection hooks (it observes corrupted values exactly
// as a deployed detector would) and before datatype rounding (its noise
// floor is the float32 kernel, not BF16 storage).
//
// Detection physics under the repo's fault models: an exponent-bit flip
// either multiplies the struck value by 2^2^i — a deviation that dwarfs
// any activation scale — or divides it, leaving a deviation of roughly
// the value's own magnitude; both clear the tolerance except when the
// struck value was already near zero. Low-order mantissa flips perturb
// the output checksum by a fraction of one element's magnitude and
// disappear below the float32 accumulation noise the tolerance must
// admit — they escape, which is acceptable precisely because the paper
// shows such flips are overwhelmingly Masked.
package abft

import (
	"math"
	"time"

	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/tensor"
)

// eps32 is the float32 unit roundoff (2^-24): the checked kernel
// accumulates in float32, so its noise is proportional to eps32.
const eps32 = 1.0 / (1 << 24)

// defaultMargin is the safety factor DefaultTol places between the
// detection threshold and the kernel's typical accumulation noise.
// Fault-free generation over the dense and MoE profiles measures peak
// deviation/(scale·sqrt(k)) of ~0.075·eps32 (see TestDefaultTolClears-
// NoiseFloor), so a margin of 4 still leaves >50x headroom over the
// observed noise while keeping the divide-direction exponent-flip miss
// band (deviation ≈ |struck value| < tol·scale) four times narrower than
// a margin of 16 would.
const defaultMargin = 4

// DefaultTol returns the relative checksum tolerance for a linear layer
// with k input features. The output checksum deviates from the float64
// expectation by the kernel's float32 rounding error, which is bounded by
// k·eps32 relative to the absolute-product scale Σ|x|·Σ|W| but behaves in
// practice like a random walk of ~sqrt(k) rounding steps. DefaultTol
// therefore sits a defaultMargin factor above sqrt(k)·eps32 — far enough
// from the noise floor that a fault-free campaign records zero false
// positives, close enough that any deviation larger than ~tol·scale
// (roughly one typical activation magnitude) is still caught.
func DefaultTol(k int) float64 {
	if k < 1 {
		k = 1
	}
	return defaultMargin * math.Sqrt(float64(k)) * eps32
}

// Config parameterizes a Checker.
type Config struct {
	// Tol overrides the per-layer derived tolerance (0 = DefaultTol of
	// each protected layer's input width).
	Tol float64
	// Policy selects the response escalation (default detect-only).
	Policy mitigate.Policy
}

// Protection is how a campaign or a serving engine asks for detection:
// the Checker Config every trial shares, plus which layers each trial's
// Checker covers.
type Protection struct {
	// Tol and Policy are Config's.
	Tol    float64
	Policy mitigate.Policy
	// AllLayers protects every block linear layer instead of only the
	// layers handed to Checker — each trial's own injection site.
	// Site-only protection is the measurement configuration (the checked
	// layer is always the struck one); AllLayers is the deployment
	// configuration whose full coverage cost the BENCH_3 comparison
	// measures.
	AllLayers bool
}

// Checker returns one trial's Checker over cache, protecting every block
// linear of m under AllLayers and otherwise exactly site (none: nothing
// is checked). It reads m as the clean reference, so it runs before the
// trial's fault is armed (faults.New): a memory fault flips the very
// storage the checksums are summed from.
func (p Protection) Checker(m *model.Model, cache *Cache, site ...model.LayerRef) (*Checker, error) {
	c := NewWithCache(Config{Tol: p.Tol, Policy: p.Policy}, cache)
	var err error
	if p.AllLayers {
		err = c.ProtectAll(m)
	} else {
		err = c.Protect(m, site...)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Event is one flagged check.
type Event struct {
	Ref model.LayerRef
	// Pos is the absolute token position whose output row failed.
	Pos int
	// Deviation and Scale are the measured checksum deviation and the
	// magnitude scale the tolerance was relative to.
	Deviation, Scale float64
	// Action is the response taken (detect / correct / skip).
	Action mitigate.Action
}

// Stats counts a trial's checks and responses.
type Stats struct {
	// Checks is the number of checksum evaluations; Flagged the violations.
	Checks, Flagged int
	// Corrected and Skipped count recompute-repaired and zeroed outputs.
	Corrected, Skipped int
}

// Checker verifies protected linear layers through the model.LinearChecker
// interface. It is not safe for concurrent use: the campaign and serving
// engines give every trial its own Checker, observing that trial's batch
// row or armed on its worker's model clone.
//
// Clean-weight checksums are cached per layer across trials — sound
// because every trial restores the weights on Disarm — so only the first
// trial touching a layer pays the O(k·n) summation. Protect must
// therefore run before the fault is armed (see Protection.Checker).
type Checker struct {
	cfg     Config
	sums    map[model.LayerRef]layerSums
	active  map[model.LayerRef]bool
	events  []Event
	stats   Stats
	scratch []float32
	mitTime time.Duration
}

type layerSums struct {
	cs  tensor.Checksums
	tol float64
}

// New returns an empty Checker.
func New(cfg Config) *Checker {
	return NewWithCache(cfg, NewCache())
}

// Cache is a shareable clean-weight checksum store. Checkers built over
// the same Cache (NewWithCache) compute each layer's O(k·n) sums once
// between them — the batched decode scheduler gives every in-flight
// trial its own Checker (own events, stats, tolerance bookkeeping) over
// the worker's single Cache. It is written only at Protect — between
// decode steps, on the goroutine that owns the worker — and read-only
// inside a step, where the Checkers of different rows read it
// concurrently.
type Cache struct {
	sums map[model.LayerRef]layerSums
}

// NewCache returns an empty checksum cache.
func NewCache() *Cache {
	return &Cache{sums: map[model.LayerRef]layerSums{}}
}

// NewWithCache returns a Checker whose clean-weight checksums live in
// (and are shared through) cache. The per-layer tolerance is resolved by
// whichever Checker first protects a layer, so Checkers sharing a cache
// must agree on Config.Tol — the campaign engine derives one tolerance
// per campaign, which every trial's Checker inherits.
func NewWithCache(cfg Config, cache *Cache) *Checker {
	return &Checker{
		cfg:    cfg,
		sums:   cache.sums,
		active: map[model.LayerRef]bool{},
	}
}

// Protect replaces the active layer set, computing (and caching)
// clean-weight checksums for layers not seen before. It must be called
// before the trial's fault is armed so the checksums reflect fault-free
// weights.
func (c *Checker) Protect(m *model.Model, refs ...model.LayerRef) error {
	c.active = make(map[model.LayerRef]bool, len(refs))
	for _, ref := range refs {
		if _, ok := c.sums[ref]; !ok {
			w, err := m.Layer(ref)
			if err != nil {
				return err
			}
			c.sums[ref] = c.newLayerSums(w)
		}
		c.active[ref] = true
	}
	return nil
}

// ProtectAll protects every block linear layer of m (the paper's
// injection sites) — the full-coverage configuration whose runtime cost
// the BENCH_3 comparison measures.
func (c *Checker) ProtectAll(m *model.Model) error {
	infos := m.LinearLayers()
	refs := make([]model.LayerRef, len(infos))
	for i, li := range infos {
		refs[i] = li.Ref
	}
	return c.Protect(m, refs...)
}

// newLayerSums computes a layer's checksums, fast-pathing dense storage.
func (c *Checker) newLayerSums(w model.Weight) layerSums {
	tol := c.cfg.Tol
	if tol <= 0 {
		tol = DefaultTol(w.In())
	}
	if d, ok := w.(*model.Dense); ok {
		return layerSums{cs: tensor.NewChecksums(d.T), tol: tol}
	}
	k, n := w.In(), w.Out()
	cs := tensor.Checksums{Sum: make([]float64, k), Abs: make([]float64, k)}
	for r := 0; r < k; r++ {
		var s, a float64
		for j := 0; j < n; j++ {
			v := w.Get(r, j)
			s += v
			a += math.Abs(v)
		}
		cs.Sum[r] = s
		cs.Abs[r] = a
	}
	return layerSums{cs: cs, tol: tol}
}

// Reset clears the event log and counters for a new trial. The checksum
// cache and active set persist: Disarm restores the weights, so the
// clean-weight sums stay valid across trials.
func (c *Checker) Reset() {
	c.events = c.events[:0]
	c.stats = Stats{}
	c.mitTime = 0
}

// MitigationTime returns the wall time spent inside the mitigation
// escalation (recompute, verify, fallback) since the last Reset. The
// telemetry layer subtracts it from the checker span so detection cost
// and repair cost report as separate phases.
func (c *Checker) MitigationTime() time.Duration { return c.mitTime }

// Events returns the flagged checks since the last Reset. The slice is
// reused; copy it to retain past Reset.
func (c *Checker) Events() []Event { return c.events }

// Stats returns the counters since the last Reset.
func (c *Checker) Stats() Stats { return c.stats }

// CheckLinear implements model.LinearChecker: it verifies the output row
// of a protected layer and, under a correcting policy, repairs it in
// place via the mitigate escalation (recompute, verify, fall back to
// zeroing the row). Unprotected layers cost one map lookup.
func (c *Checker) CheckLinear(ref model.LayerRef, pos int, w model.Weight, in, out []float32) {
	if !c.active[ref] {
		return
	}
	ls := c.sums[ref]
	c.stats.Checks++
	ok, dev, scale := ls.cs.CheckRow(in, out, ls.tol)
	if ok {
		return
	}
	c.stats.Flagged++
	ev := Event{Ref: ref, Pos: pos, Deviation: dev, Scale: scale, Action: mitigate.ActionDetect}
	if c.cfg.Policy != mitigate.PolicyDetect {
		if cap(c.scratch) < len(out) {
			c.scratch = make([]float32, len(out))
		}
		mitStart := time.Now() //llmfi:allow determinism mitigation-latency telemetry; never feeds the detection decision
		ev.Action = mitigate.Respond(c.cfg.Policy, out, c.scratch[:len(out)],
			func(dst []float32) { w.Forward(dst, in) },
			func(cand []float32) bool {
				ok, _, _ := ls.cs.CheckRow(in, cand, ls.tol)
				return ok
			})
		c.mitTime += time.Since(mitStart) //llmfi:allow determinism mitigation-latency telemetry; never feeds the detection decision
		switch ev.Action {
		case mitigate.ActionCorrect:
			c.stats.Corrected++
		case mitigate.ActionSkip:
			c.stats.Skipped++
		}
	}
	c.events = append(c.events, ev)
}
