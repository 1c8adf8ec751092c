package faults

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/numerics"
)

// Injection is one armed fault: §3.2's flip, run, flip back. New is its
// only constructor and, with Reach, the only code that knows how a Site
// strikes.
//
// Every site strikes through exactly one observer that New builds and
// installs nowhere: the caller puts it on the state of the inference the
// fault belongs to (Observers, gen.Arm), never on the model. A
// weight-resident site (linear memory fault, norm gain, embedding
// element) is a Strike — the flipped parameter, read in place of the
// stored one wherever the forward pass reads it — so no storage is ever
// written and there is nothing to flip back. A transient site is a Hook,
// AttnHook or BeforeStep that fires at most once. Dropping the observer
// retires the fault.
type Injection struct {
	Site Site
	// Strike is a weight-resident site's overlay.
	Strike *model.Strike
	// Hook strikes the site layer's linear output row.
	Hook model.Hook
	// AttnHook strikes the site block's post-attention activation row,
	// before out_proj consumes it.
	AttnHook model.Hook
	// BeforeStep strikes the KV cache of the state it is handed; the
	// decode loop calls it immediately before each step of that state.
	// Never calling it leaves every bit of the inference untouched.
	BeforeStep func(*model.State)
	// Fired reports whether the fault struck: a transient one once its
	// target iteration was reached, a weight-resident one always.
	Fired bool
}

// New builds the fault described by site over m's weights, which it only
// reads. promptLen is the length of the prompt fed before generation
// starts: a transient fault strikes at absolute position promptLen +
// site.GenIter.
func New(m *model.Model, site Site, promptLen int) (*Injection, error) {
	inj := &Injection{Site: site}
	target := promptLen + site.GenIter
	switch site.Surface {
	case SurfaceNorm:
		g, err := m.Norm(site.Layer)
		if err != nil {
			return nil, err
		}
		if site.Col >= len(g) {
			return nil, fmt.Errorf("faults: site %v out of range for %d-gain norm", site, len(g))
		}
		inj.strikeVec(g, 0)
	case SurfaceEmbed:
		t := m.Embed
		if site.Row >= t.Rows || site.Col >= t.Cols {
			return nil, fmt.Errorf("faults: site %v out of range for %dx%d embedding", site, t.Rows, t.Cols)
		}
		inj.strikeVec(t.Row(site.Row), site.Row)
	case SurfaceAttn:
		if site.Layer.Kind != model.KindAttnAct {
			return nil, fmt.Errorf("faults: attn site %v must address attn_act", site)
		}
		inj.AttnHook = inj.flipOnce(numerics.FP32, target)
	case SurfaceKV:
		if site.Layer.Kind != model.KindK && site.Layer.Kind != model.KindV {
			return nil, fmt.Errorf("faults: kv site %v must address k_proj or v_proj cache", site)
		}
		inj.BeforeStep = func(st *model.State) { inj.strikeKV(st, target) }
	default:
		if !site.Fault.IsMemory() {
			inj.Hook = inj.flipOnce(m.Cfg.DType, target)
			return inj, nil
		}
		w, err := m.Layer(site.Layer)
		if err != nil {
			return nil, err
		}
		if site.Row >= w.In() || site.Col >= w.Out() {
			return nil, fmt.Errorf("faults: site %v out of range for %dx%d weight", site, w.In(), w.Out())
		}
		inj.Strike = &model.Strike{Ref: site.Layer, W: w.Struck(site.Row, site.Col, site.Bits)}
		inj.Fired = true
	}
	return inj, nil
}

// Observers returns the injection's strike, hook or attention hook as the
// observers of one inference (model.State.Observers); a kv site's strike
// is BeforeStep's, which the decode loop calls (gen.Arm).
func (inj *Injection) Observers() model.Observers {
	obs := model.Observers{Strike: inj.Strike}
	if inj.Hook != nil {
		obs.Hooks = []model.Hook{inj.Hook}
	}
	if inj.AttnHook != nil {
		obs.AttnHooks = []model.Hook{inj.AttnHook}
	}
	return obs
}

// Reach returns the first decode step site can change in a greedy decode
// whose clean run chose tokens, step g being the one that decodes
// generated token g: every step before it computes, bit for bit, what the
// clean decode computed, and the fault fires in none of them. A transient
// site (linear computational, attn, kv) strikes at GenIter; a norm gain or
// a linear weight is read from step 0 on; an embedding row is read by the
// first step fed its token, or by none of the clean tokens' steps, in
// which case Reach is len(tokens). It assumes New's arming: the prompt is
// computed clean, before the fault, as a served request's is.
func Reach(site Site, tokens []int) int {
	switch site.Surface {
	case SurfaceNorm:
		return 0
	case SurfaceEmbed:
		for g, tok := range tokens {
			if tok == site.Row {
				return g
			}
		}
		return len(tokens)
	case SurfaceLinear:
		if site.Fault.IsMemory() {
			return 0
		}
	}
	return site.GenIter
}

// strikeVec builds the strike of a float32 parameter vector (a norm gain,
// or embedding row row: FP32 storage, see surfaceBits): a copy of stored
// with the site's bits of element Site.Col flipped.
func (inj *Injection) strikeVec(stored []float32, row int) {
	vec := slices.Clone(stored)
	c := inj.Site.Col
	vec[c] = float32(numerics.FlipBits(numerics.FP32, float64(vec[c]), inj.Site.Bits...))
	inj.Strike = &model.Strike{Ref: inj.Site.Layer, Vec: vec, Row: row}
	inj.Fired = true
}

// flipOnce builds the one-shot strike on an observed row: the first time
// the site layer computes position target, neuron Site.Col has the
// site's bits of its dt pattern flipped. With beam search this corrupts
// exactly one hypothesis's row, which is how a transient in a batched
// GEMM behaves (one row of the output tensor), and is the mechanism
// behind Observation #9.
func (inj *Injection) flipOnce(dt numerics.DType, target int) model.Hook {
	return func(ref model.LayerRef, pos int, out []float32) {
		site := &inj.Site
		if inj.Fired || ref != site.Layer || pos != target || site.Col >= len(out) {
			return
		}
		out[site.Col] = float32(numerics.FlipBits(dt, float64(out[site.Col]), site.Bits...))
		inj.Fired = true
	}
}

// strikeKV flips the cache bits once st has reached position target; the
// step that follows (and every later one) attends over the corrupted
// entry. Out-of-range sites (a request shorter than the sampled strike)
// simply never fire.
func (inj *Injection) strikeKV(st *model.State, target int) {
	site := &inj.Site
	if inj.Fired || st.Pos < target {
		return
	}
	v, ok := st.KVAt(site.Layer, site.Row, site.Col)
	if !ok {
		return
	}
	// SetKV makes the struck row private to st if it is one st shares.
	st.SetKV(site.Layer, site.Row, site.Col, float32(numerics.FlipBits(numerics.FP32, float64(v), site.Bits...)))
	inj.Fired = true
}

// FaultValue returns, for a memory fault, the weight value before and
// after the flip — used by propagation traces and reports. It reads m's
// weight and its struck view (Weight.Struck); nothing is written.
func FaultValue(m *model.Model, site Site) (before, after float64, err error) {
	if !site.Fault.IsMemory() {
		return 0, 0, fmt.Errorf("faults: FaultValue applies to memory faults only")
	}
	w, err := m.Layer(site.Layer)
	if err != nil {
		return 0, 0, err
	}
	after = w.Struck(site.Row, site.Col, site.Bits).Get(site.Row, site.Col)
	return w.Get(site.Row, site.Col), after, nil
}
