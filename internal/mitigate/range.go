// Package mitigate implements the fault-tolerance mechanisms the paper's
// conclusion calls for ("future work could focus on developing inference
// algorithms for LLMs that reduce fault propagation (i.e., fault
// isolation)"), built from the literature it cites:
//
//   - Range restriction (Chen et al., DSN'21 — the paper's [12]): profile
//     each linear layer's fault-free activation range, then clamp outputs
//     to the profiled bounds during inference. A bit flip that drives an
//     activation to ±1e38 is squashed back before it can propagate — the
//     cheap, software-only defense against exactly the exponent-MSB
//     faults Figures 9–10 identify as the dominant SDC source.
//
//   - Algorithm-based fault tolerance (ALBERTA-style, the paper's [46]):
//     per-column weight checksums verified against the computation,
//     detecting resident memory faults so the serving system can reload
//     the weights (detection, not correction).
package mitigate

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/tasks"
)

// Range holds the profiled output bounds of one linear layer.
type Range struct {
	Lo, Hi float32
}

// Profile maps each linear layer to its fault-free output range.
type Profile struct {
	mu     sync.Mutex
	ranges map[model.LayerRef]*Range
	// Margin widens the profiled bounds multiplicatively (1.0 = exact
	// profiled extremes). The paper's cited range-restriction work uses a
	// safety margin so rare-but-legal activations are not clipped.
	Margin float32
}

// NewProfile returns an empty profile with the default 1.25x margin.
func NewProfile() *Profile {
	return &Profile{ranges: map[model.LayerRef]*Range{}, Margin: 1.25}
}

// observeHook returns a forward hook that widens the profile to cover
// every observed activation.
func (p *Profile) observeHook() model.Hook {
	return func(ref model.LayerRef, pos int, out []float32) {
		ref.Expert = canonExpert(ref)
		p.mu.Lock()
		r := p.ranges[ref]
		if r == nil {
			r = &Range{Lo: float32(math.Inf(1)), Hi: float32(math.Inf(-1))}
			p.ranges[ref] = r
		}
		for _, v := range out {
			if v < r.Lo {
				r.Lo = v
			}
			if v > r.Hi {
				r.Hi = v
			}
		}
		p.mu.Unlock()
	}
}

// canonExpert collapses expert indices: all experts of a block share one
// profiled range (they are exchangeable by construction and a fault must
// not evade clamping by landing in a cold expert).
func canonExpert(ref model.LayerRef) int {
	if ref.Expert >= 0 {
		return 0
	}
	return ref.Expert
}

// Calibrate runs every instance of the suite through m fault-free —
// prompt processing AND greedy generation of up to MaxNew tokens, so the
// profile covers the activations of both phases — and records per-layer
// output ranges. maxInstances > 0 truncates the calibration set.
func Calibrate(m *model.Model, suite *tasks.Suite, maxInstances int) *Profile {
	p := NewProfile()
	hooks := []model.Hook{p.observeHook()}
	n := 0
	for i := range suite.Instances {
		if maxInstances > 0 && n >= maxInstances {
			break
		}
		inst := &suite.Instances[i]
		maxNew := inst.MaxNew
		if maxNew == 0 {
			maxNew = 8
		}
		st := m.NewState()
		st.Hooks = hooks
		gen.GenerateFrom(m, st, st.Prefill(inst.Prompt), gen.Defaults(maxNew))
		n++
	}
	return p
}

// Bounds returns the margin-widened clamp bounds for a layer, or ok=false
// if the layer was never profiled.
func (p *Profile) Bounds(ref model.LayerRef) (lo, hi float32, ok bool) {
	ref.Expert = canonExpert(ref)
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.ranges[ref]
	if r == nil || r.Lo > r.Hi {
		return 0, 0, false
	}
	return widen(r.Lo, p.Margin, false), widen(r.Hi, p.Margin, true), true
}

// widen scales a bound away from zero by margin.
func widen(v, margin float32, upper bool) float32 {
	if v == 0 {
		if upper {
			return 1e-3
		}
		return -1e-3
	}
	if (v > 0) == upper {
		return v * margin
	}
	return v / margin
}

// Layers returns the number of profiled layers.
func (p *Profile) Layers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ranges)
}

// Restrictor clamps layer outputs to profiled ranges and counts how often
// it intervenes. Counters are atomic so one Restrictor may serve the
// concurrent workers of a campaign.
type Restrictor struct {
	Profile *Profile
	// clamped counts individual clamped values; activations counts layer
	// outputs in which at least one value was clamped.
	clamped     atomic.Int64
	activations atomic.Int64
}

// NewRestrictor wraps a profile.
func NewRestrictor(p *Profile) *Restrictor {
	return &Restrictor{Profile: p}
}

// Clamped returns the number of individual values clamped so far.
func (r *Restrictor) Clamped() int64 { return r.clamped.Load() }

// Activations returns the number of layer outputs with >= 1 clamp.
func (r *Restrictor) Activations() int64 { return r.activations.Load() }

// Hook returns the clamping forward hook. Register it AFTER any fault-
// injection hooks so the restriction sees the corrupted values — exactly
// the deployment ordering (the fault happens in hardware; the clamp is
// the next software step).
func (r *Restrictor) Hook() model.Hook {
	return func(ref model.LayerRef, pos int, out []float32) {
		lo, hi, ok := r.Profile.Bounds(ref)
		if !ok {
			return
		}
		hits := 0
		for i, v := range out {
			switch {
			case math.IsNaN(float64(v)):
				out[i] = 0
				hits++
			case v > hi:
				out[i] = hi
				hits++
			case v < lo:
				out[i] = lo
				hits++
			}
		}
		if hits > 0 {
			r.clamped.Add(int64(hits))
			r.activations.Add(1)
		}
	}
}
