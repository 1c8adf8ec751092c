package faults

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/numerics"
)

// Injection is one armed fault: §3.2's flip, run, flip back. New is its
// only constructor and the only code that knows how a Site strikes.
//
// A weight-resident site (linear memory fault, norm gain, embedding
// element) has flipped the model's storage when New returns, and Disarm
// flips it back; one such Injection may be armed on a model at a time. A
// transient site strikes through exactly one observer — Hook, AttnHook
// or BeforeStep — that New builds and installs nowhere: the caller
// carries it on the decode-loop row the fault belongs to (gen.Arm), or
// has Arm install it on the whole model. It fires at most once, and
// dropping it retires the fault.
type Injection struct {
	Site Site
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

	undo func()
}

// New arms the fault described by site on m. promptLen is the length of
// the prompt fed before generation starts: a transient fault strikes at
// absolute position promptLen + site.GenIter.
func New(m *model.Model, site Site, promptLen int) (*Injection, error) {
	inj := &Injection{Site: site}
	target := promptLen + site.GenIter
	switch site.Surface {
	case SurfaceNorm:
		g, err := m.NormForWrite(site.Layer)
		if err != nil {
			return nil, err
		}
		if site.Col >= len(g) {
			return nil, fmt.Errorf("faults: site %v out of range for %d-gain norm", site, len(g))
		}
		inj.flipStored(&g[site.Col])
	case SurfaceEmbed:
		t := m.EmbedForWrite()
		if site.Row >= t.Rows || site.Col >= t.Cols {
			return nil, fmt.Errorf("faults: site %v out of range for %dx%d embedding", site, t.Rows, t.Cols)
		}
		inj.flipStored(&t.Row(site.Row)[site.Col])
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
		// LayerForWrite privatizes the target tensor on a weight-sharing
		// clone before the flip, so sibling campaign workers never observe
		// each other's faults.
		w, err := m.LayerForWrite(site.Layer)
		if err != nil {
			return nil, err
		}
		if site.Row >= w.In() || site.Col >= w.Out() {
			return nil, fmt.Errorf("faults: site %v out of range for %dx%d weight", site, w.In(), w.Out())
		}
		inj.undo = w.FlipBits(site.Row, site.Col, site.Bits)
		inj.Fired = true
	}
	return inj, nil
}

// flipStored flips the site's bits in one float32 parameter (a norm gain
// or embedding element: FP32 storage, see surfaceBits) in place.
func (inj *Injection) flipStored(p *float32) {
	old := *p
	*p = float32(numerics.FlipBits(numerics.FP32, float64(old), inj.Site.Bits...))
	inj.undo = func() { *p = old }
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

// Arm is New for a whole-model inference: the observer goes on m itself,
// so the next inference over m is the faulty one, and Disarm clears m's
// hooks of that kind wholesale — the caller owns the hook lists for the
// trial. A KV strike belongs to one State, which a model has no slot
// for, so Arm refuses kv sites.
func Arm(m *model.Model, site Site, promptLen int) (*Injection, error) {
	if site.Surface == SurfaceKV {
		return nil, fmt.Errorf("faults: kv site %v is state-scoped; carry New's BeforeStep on the decode loop", site)
	}
	inj, err := New(m, site, promptLen)
	if err != nil {
		return nil, err
	}
	if inj.Hook != nil {
		m.AddHook(inj.Hook)
		inj.undo = m.ClearHooks
	}
	if inj.AttnHook != nil {
		m.AddAttnHook(inj.AttnHook)
		inj.undo = m.ClearAttnHooks
	}
	return inj, nil
}

// Disarm restores the model to its fault-free configuration.
func (inj *Injection) Disarm() {
	if inj.undo != nil {
		inj.undo()
		inj.undo = nil
	}
}

// FaultValue returns, for a memory fault, the weight value before and
// after the flip — used by propagation traces and reports. The flip is
// transient (restored before returning) but still a write, so it must
// go through LayerForWrite: on a CloneShared worker a flip through
// Layer would momentarily corrupt the parent's shared tensor under
// every sibling worker's feet.
func FaultValue(m *model.Model, site Site) (before, after float64, err error) {
	if !site.Fault.IsMemory() {
		return 0, 0, fmt.Errorf("faults: FaultValue applies to memory faults only")
	}
	w, err := m.LayerForWrite(site.Layer)
	if err != nil {
		return 0, 0, err
	}
	before = w.Get(site.Row, site.Col)
	restore := w.FlipBits(site.Row, site.Col, site.Bits)
	after = w.Get(site.Row, site.Col)
	restore()
	return before, after, nil
}
