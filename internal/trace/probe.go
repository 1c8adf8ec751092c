package trace

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/tensor"
)

// capKey addresses one layer invocation of a forward pass: the layer and
// the absolute token position it produced output for.
type capKey struct {
	ref model.LayerRef
	pos int
}

// Capture records the per-layer activations of whatever forward pass its
// hook is installed on. The campaign runtime builds one per instance
// during the fault-free baseline evaluation, and every traced trial of
// that instance then reads it concurrently — immutable after Seal; the
// propagation figures install one on a clean and on a faulty run and
// compare the two through Layer.
type Capture struct {
	minPos int
	rows   map[capKey][]float32
	sealed bool
}

// NewCapture returns a Capture that stores layer outputs for token
// positions >= minPos. Campaigns over transient computational faults pass
// the prompt length (faults strike only during decode, so prompt rows are
// dead weight); campaigns over resident memory faults pass 0 (a flipped
// weight corrupts the prefill too).
func NewCapture(minPos int) *Capture {
	return &Capture{minPos: minPos, rows: map[capKey][]float32{}}
}

// Hook returns the model.Hook that records the rows of the pass it is
// installed on. A capture that probes compare against must only ever
// observe the fault-free baseline.
func (c *Capture) Hook() model.Hook {
	return func(ref model.LayerRef, pos int, out []float32) {
		if c.sealed || pos < c.minPos {
			return
		}
		row := make([]float32, len(out))
		copy(row, out)
		c.rows[capKey{ref, pos}] = row
	}
}

// Seal freezes the capture for concurrent read-only use by trial probes.
func (c *Capture) Seal() { c.sealed = true }

// Len reports the number of captured layer rows.
func (c *Capture) Len() int { return len(c.rows) }

func (c *Capture) row(ref model.LayerRef, pos int) []float32 {
	return c.rows[capKey{ref, pos}]
}

// Layer returns ref's captured rows in position order as a (positions x
// width) tensor; empty when the capture holds none of ref.
func (c *Capture) Layer(ref model.LayerRef) *tensor.Tensor {
	var pos []int
	for k := range c.rows {
		if k.ref == ref {
			pos = append(pos, k.pos)
		}
	}
	if len(pos) == 0 {
		return tensor.New(0, 0)
	}
	sort.Ints(pos)
	t := tensor.New(len(pos), len(c.row(ref, pos[0])))
	for i, p := range pos {
		copy(t.Row(i), c.row(ref, p))
	}
	return t
}

// ProbeConfig parameterizes one trial's propagation probe.
type ProbeConfig struct {
	// Tol is the relative-L2 divergence tolerance (0 = DefaultTol).
	Tol float64
	// StrikePos is the absolute token position where a transient fault
	// fires (prompt length + GenIter), or -1 for resident faults; the
	// per-layer deviation profile and blast radius are measured there.
	// For resident faults the profile is taken at the first diverged
	// position instead.
	StrikePos int
	// Site is the injected layer. Blast radius counts invocations from
	// this layer onward at the strike position.
	Site model.LayerRef
}

// Probe observes one faulty trial's layer outputs through a model.Hook
// and compares them against the instance's clean Capture. It is
// single-trial, single-goroutine state: the campaign engine creates one
// per traced trial on the worker that runs it.
//
// The probe hook is installed after the fault-injection hook, so it sees
// activations exactly as the faulty forward produces them (post-fault,
// pre-ABFT-mitigation, pre-rounding).
type Probe struct {
	ref *Capture
	cfg ProbeConfig

	firstDiv   *Divergence
	devs       []LayerDev
	margins    []Margin
	blocksHit  map[int]bool
	downstream bool
	dsTotal    int
	dsExceeded int
	maxRelL2   float64
	maxLInf    float64
	compared   int
}

// NewProbe returns a probe comparing the faulty forward against ref.
func NewProbe(ref *Capture, cfg ProbeConfig) *Probe {
	if cfg.Tol <= 0 {
		cfg.Tol = DefaultTol
	}
	return &Probe{ref: ref, cfg: cfg, blocksHit: map[int]bool{}}
}

// Hook returns the model.Hook that performs the per-invocation
// comparison. It never mutates the output row.
func (p *Probe) Hook() model.Hook {
	return func(ref model.LayerRef, pos int, out []float32) {
		clean := p.ref.row(ref, pos)
		if ref.Kind == model.KindLMHead {
			p.observeLogits(pos, out, clean)
		}
		if clean == nil || len(clean) != len(out) {
			return
		}
		p.compared++
		rel, linf := deviation(out, clean)
		if rel > p.maxRelL2 {
			p.maxRelL2 = rel
		}
		if linf > p.maxLInf {
			p.maxLInf = linf
		}
		exceeded := rel > p.cfg.Tol
		if exceeded && p.firstDiv == nil {
			p.firstDiv = &Divergence{
				Layer: ref.String(), Block: ref.Block, Pos: pos,
				RelL2: finite(rel), LInf: finite(linf),
			}
		}
		strike := p.strikeAt()
		if strike < 0 || pos != strike {
			return
		}
		p.devs = append(p.devs, LayerDev{
			Layer: ref.String(), Block: ref.Block, Pos: pos,
			RelL2: finite(rel), LInf: finite(linf), Exceeded: exceeded,
		})
		// Blast radius counts from the injection site onward: for a
		// transient fault the site layer's own invocation opens the
		// window; for a resident fault (no single site invocation at
		// this position) the first diverged invocation does.
		if !p.downstream {
			if p.cfg.StrikePos >= 0 {
				p.downstream = ref == p.cfg.Site
			} else {
				p.downstream = exceeded
			}
		}
		if p.downstream {
			p.dsTotal++
			if exceeded {
				p.dsExceeded++
				if ref.Block >= 0 {
					p.blocksHit[ref.Block] = true
				}
			}
		}
	}
}

// strikeAt resolves the position the per-layer profile is measured at:
// the known transient strike position, or — for resident faults — the
// position of the first divergence once one is seen.
func (p *Probe) strikeAt() int {
	if p.cfg.StrikePos >= 0 {
		return p.cfg.StrikePos
	}
	if p.firstDiv != nil {
		return p.firstDiv.Pos
	}
	return -1
}

// observeLogits samples the logit-margin trajectory from an LM-head
// invocation: top1 − top2 of the faulty logits, and whether the faulty
// argmax departs from the clean baseline's.
func (p *Probe) observeLogits(pos int, out, clean []float32) {
	fi, fm := topMargin(out)
	diverged := true
	if clean != nil {
		ci, _ := topMargin(clean)
		diverged = fi != ci
	}
	p.margins = append(p.margins, Margin{Pos: pos, Margin: finite(fm), Diverged: diverged})
}

// Fill writes the probe's measurements into rec.
func (p *Probe) Fill(rec *Record) {
	rec.FirstDivergence = p.firstDiv
	rec.PropagationDepth = len(p.blocksHit)
	if p.dsTotal > 0 {
		rec.BlastRadius = float64(p.dsExceeded) / float64(p.dsTotal)
	}
	rec.MaxRelL2 = finite(p.maxRelL2)
	rec.MaxLInf = finite(p.maxLInf)
	rec.Compared = p.compared
	rec.Layers = p.devs
	rec.LogitMargins = p.margins
}

// deviation computes the relative L2 and absolute L∞ deviation of out
// from clean. A non-finite faulty value reads as an infinite deviation
// (the clean reference is always finite).
func deviation(out, clean []float32) (relL2, linf float64) {
	var sum, ref float64
	for i, v := range out {
		c := float64(clean[i])
		ref += c * c
		fv := float64(v)
		if math.IsNaN(fv) || math.IsInf(fv, 0) {
			return math.Inf(1), math.Inf(1)
		}
		d := fv - c
		sum += d * d
		if a := math.Abs(d); a > linf {
			linf = a
		}
	}
	return math.Sqrt(sum) / (math.Sqrt(ref) + 1e-30), linf
}

// topMargin returns the argmax of v and the gap top1 − top2. Non-finite
// entries compare as in gen's argmax: NaN never wins.
func topMargin(v []float32) (int, float64) {
	best, second := math.Inf(-1), math.Inf(-1)
	idx := -1
	for i, x := range v {
		fx := float64(x)
		if math.IsNaN(fx) {
			continue
		}
		if fx > best {
			second = best
			best = fx
			idx = i
		} else if fx > second {
			second = fx
		}
	}
	if idx < 0 || math.IsInf(second, -1) {
		return idx, 0
	}
	return idx, best - second
}
