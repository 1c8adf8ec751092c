// Package abft implements online algorithm-based fault tolerance for the
// model's linear layers: every protected GEMM output row is verified
// against precomputed float64 checksums of the clean weights, in the
// style of the ReaLM line of work the paper's related-work section
// discusses. The checksums are a property of the fault-free model, so
// they live in one immutable Table, summed once from the model nobody
// strikes and read by every trial's Checker on whichever clone, batch
// row or goroutine it runs. A Checker plugs into a state's observers
// (model.Observers.Checker), so the check runs after the fault-injection
// hooks (it observes corrupted values exactly as a deployed detector
// would) and before datatype rounding (its noise floor is the float32
// kernel, not BF16 storage).
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
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
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

// Protection is how a campaign or a serving engine asks for detection:
// the tolerance its Table is summed under, the response policy, and
// which layers each trial's Checker covers.
type Protection struct {
	// Tol overrides the per-layer derived tolerance (0 = DefaultTol of
	// each layer's input width).
	Tol float64
	// Policy selects the response escalation (default detect-only).
	Policy mitigate.Policy
	// AllLayers protects every block linear layer instead of only the
	// layers handed to Checker — each trial's own injection site.
	// Site-only protection is the measurement configuration (the checked
	// layer is always the struck one); AllLayers is the deployment
	// configuration whose full coverage cost the BENCH_3 comparison
	// measures.
	AllLayers bool
}

// Table holds the clean-weight row checksums and the tolerance of every
// block linear layer of one model (the paper's injection sites). It is
// built in one pass by Protection.Table and never written again, so any
// number of Checkers on any goroutines read it without a rule between
// them.
type Table struct {
	sums map[model.LayerRef]*layerSums
}

type layerSums struct {
	cs  tensor.Checksums
	tol float64
}

// Table sums every block linear layer of m under p.Tol: the clean weights,
// whatever faults the inferences over m are armed with.
func (p Protection) Table(m *model.Model) *Table {
	layers := m.LinearLayers()
	t := &Table{sums: make(map[model.LayerRef]*layerSums, len(layers))}
	for _, li := range layers {
		t.sums[li.Ref] = newLayerSums(li.Weight, p.Tol)
	}
	return t
}

// Checker returns one trial's Checker over t, protecting every layer of
// t under AllLayers and otherwise exactly site (none: nothing is
// checked). A site t does not hold is an error.
func (p Protection) Checker(t *Table, site ...model.LayerRef) (*Checker, error) {
	c := &Checker{policy: p.Policy, table: t, all: p.AllLayers}
	if !c.all {
		for _, ref := range site {
			if t.sums[ref] == nil {
				return nil, fmt.Errorf("abft: no checksums for layer %v", ref)
			}
		}
		c.site = slices.Clone(site)
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
// interface. The campaign and serving engines give every trial its own
// Checker, observing that trial's batch row or armed on its worker's
// model clone; what Checkers share is the Table, which none of them
// writes. One trial's rows may be checked at once — a prefill runs its
// positions in shards (model.Observers), each shard one call per layer —
// so a call owns no scratch and touches only an atomic counter, once, for
// all its rows; a row that flags takes the Checker's lock for its event
// and its repair.
type Checker struct {
	policy mitigate.Policy
	table  *Table
	all    bool
	site   []model.LayerRef
	checks atomic.Int64

	mu        sync.Mutex
	events    []Event       //llmfi:guardedby mu
	flagged   int           //llmfi:guardedby mu
	corrected int           //llmfi:guardedby mu
	skipped   int           //llmfi:guardedby mu
	scratch   []float32     //llmfi:guardedby mu
	mitTime   time.Duration //llmfi:guardedby mu
}

// newLayerSums computes a layer's checksums, fast-pathing dense storage.
func newLayerSums(w model.Weight, tol float64) *layerSums {
	if tol <= 0 {
		tol = DefaultTol(w.In())
	}
	if d, ok := w.(*model.Dense); ok {
		return &layerSums{cs: tensor.NewChecksums(d.T), tol: tol}
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
	return &layerSums{cs: cs, tol: tol}
}

// MitigationTime returns the wall time the trial spent inside the
// mitigation escalation (recompute, verify, fallback). The telemetry
// layer subtracts it from the checker span so detection cost and repair
// cost report as separate phases.
func (c *Checker) MitigationTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mitTime
}

// Events returns the trial's flagged checks, sorted by position. A
// position's events keep the order its row raised them in, which is its
// layers' forward order, so the order does not depend on how a pass
// sharded its rows.
func (c *Checker) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	slices.SortStableFunc(c.events, func(a, b Event) int { return a.Pos - b.Pos })
	return c.events
}

// Stats returns the trial's counters.
func (c *Checker) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Checks: int(c.checks.Load()), Flagged: c.flagged, Corrected: c.corrected, Skipped: c.skipped}
}

// checkGroup is how many rows Check hands the checksum kernel at once:
// their verdicts live in Check's frame, so a check allocates nothing.
const checkGroup = 32

// CheckLinear implements model.LinearChecker: it verifies the output rows
// of a protected layer and, under a correcting policy, repairs each
// flagged row in place via the mitigate escalation (recompute, verify,
// fall back to zeroing the row). A layer the table does not hold (the LM
// head) is never checked.
func (c *Checker) CheckLinear(ref model.LayerRef, w model.Weight, pos []int, in, out []float32) {
	c.Check(ref, w, pos, in, out, nil)
}

// Check is CheckLinear reporting its verdicts: whether it checked the
// rows — all of them or none, by layer — and, when flagged is non-nil,
// each checked row's verdict in flagged[pos[i]]. flagged is indexed by
// position, so calls at once on distinct positions write distinct slots.
// The site filter, the table lookup and the counter are paid once per
// call; the rows' checksums run side by side (tensor.Checksums.CheckSpan);
// flagged rows take the lock one by one, in row order.
func (c *Checker) Check(ref model.LayerRef, w model.Weight, pos []int, in, out []float32, flagged []bool) (checked bool) {
	rows := len(pos)
	if rows == 0 || !c.all && !slices.Contains(c.site, ref) {
		return false
	}
	ls := c.table.sums[ref]
	if ls == nil {
		return false
	}
	c.checks.Add(int64(rows))
	k, n := len(in)/rows, len(out)/rows
	var ok [checkGroup]bool
	var dev, scale [checkGroup]float64
	for g := 0; g < rows; g += checkGroup {
		e := min(g+checkGroup, rows)
		ls.cs.CheckSpan(in[g*k:e*k], out[g*n:e*n], ls.tol, ok[:e-g], dev[:e-g], scale[:e-g])
		for i := g; i < e; i++ {
			if flagged != nil {
				flagged[pos[i]] = !ok[i-g]
			}
			if !ok[i-g] {
				c.flag(ls, Event{Ref: ref, Pos: pos[i], Deviation: dev[i-g], Scale: scale[i-g]}, w,
					in[i*k:(i+1)*k], out[i*n:(i+1)*n])
			}
		}
	}
	return true
}

// flag records a flagged row's event and, under a correcting policy,
// repairs the row. A nil w (no hook touched the row) has it escalate
// without the recompute, which would reproduce the row
// (model.LinearChecker).
func (c *Checker) flag(ls *layerSums, ev Event, w model.Weight, in, out []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flagged++
	ev.Action = mitigate.ActionDetect
	if c.policy != mitigate.PolicyDetect {
		var (
			recompute func(dst []float32)
			scratch   []float32
		)
		if w != nil {
			if cap(c.scratch) < len(out) {
				c.scratch = make([]float32, len(out))
			}
			recompute, scratch = func(dst []float32) { w.Forward(dst, in) }, c.scratch[:len(out)]
		}
		mitStart := time.Now() //llmfi:allow determinism mitigation-latency telemetry; never feeds the detection decision
		ev.Action = mitigate.Respond(c.policy, out, scratch, recompute,
			func(cand []float32) bool {
				ok, _, _ := ls.cs.CheckRow(in, cand, ls.tol)
				return ok
			})
		c.mitTime += time.Since(mitStart) //llmfi:allow determinism mitigation-latency telemetry; never feeds the detection decision
		switch ev.Action {
		case mitigate.ActionCorrect:
			c.corrected++
		case mitigate.ActionSkip:
			c.skipped++
		}
	}
	c.events = append(c.events, ev)
}
