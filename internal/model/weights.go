package model

import (
	"fmt"
	"runtime"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

// Weight is a linear layer's parameter matrix, abstracted so that dense
// floating-point storage and quantized integer storage (internal/quant)
// are interchangeable. The fault injector needs only this interface:
// memory faults flip bits of the *storage* representation at (row, col)
// and must be restorable (flip-back after each trial, §3.2).
type Weight interface {
	// In returns the input dimension (rows of the matrix).
	In() int
	// Out returns the output dimension (columns).
	Out() int
	// Forward computes out = x · W for a single row vector x.
	Forward(out, x []float32)
	// Get returns the effective (dequantized) value at (r, c).
	Get(r, c int) float64
	// FlipBits flips the listed storage-bit positions of the element at
	// (r, c) and returns a function restoring the original storage.
	FlipBits(r, c int, bits []int) (restore func())
	// StorageBits returns the number of addressable bits per element.
	StorageBits() int
	// CloneWeight returns an independent deep copy. Campaign workers
	// clone the model so concurrent memory-fault trials cannot observe
	// each other's flipped weights.
	CloneWeight() Weight
}

// Dense is a Weight backed by a float32 tensor whose elements logically
// live in DT: they are pre-rounded to DT at construction, and FlipBits
// operates on the DT bit pattern (so a BF16 model's weights can reach
// ±3e38 after an exponent-MSB flip while an FP16 model's cannot exceed
// ±65504 — the mechanism of Observation #11).
type Dense struct {
	T  *tensor.Tensor // In x Out
	DT numerics.DType
}

// NewDense wraps t, rounding every element to dt.
func NewDense(t *tensor.Tensor, dt numerics.DType) *Dense {
	d := &Dense{T: t, DT: dt}
	if dt != numerics.FP32 {
		for i, v := range t.Data {
			t.Data[i] = float32(numerics.Round(dt, float64(v)))
		}
	}
	return d
}

// In returns the input dimension.
func (d *Dense) In() int { return d.T.Rows }

// Out returns the output dimension.
func (d *Dense) Out() int { return d.T.Cols }

// Forward computes out = x · W.
func (d *Dense) Forward(out, x []float32) { tensor.MatVec(out, x, d.T) }

// Get returns the element at (r, c).
func (d *Dense) Get(r, c int) float64 { return float64(d.T.At(r, c)) }

// StorageBits returns the bit width of the logical datatype.
func (d *Dense) StorageBits() int { return d.DT.Bits() }

// FlipBits flips the given bit positions of element (r, c) in the DT
// representation and returns a restorer.
func (d *Dense) FlipBits(r, c int, bits []int) func() {
	old := d.T.At(r, c)
	d.T.Set(r, c, float32(numerics.FlipBits(d.DT, float64(old), bits...)))
	return func() { d.T.Set(r, c, old) }
}

// CloneWeight returns a deep copy.
func (d *Dense) CloneWeight() Weight {
	return &Dense{T: d.T.Clone(), DT: d.DT}
}

// MLPWeights holds one SwiGLU feed-forward network: down(silu(gate(x)) *
// up(x)). For MoE models each expert owns one MLPWeights.
type MLPWeights struct {
	WGate, WUp, WDown Weight
}

// Block is one transformer block's parameters.
type Block struct {
	AttnNorm []float32 // RMSNorm gain before attention
	MLPNorm  []float32 // RMSNorm gain before MLP / MoE

	Wq, Wk, Wv, Wo Weight

	// Dense path (NumExperts == 0):
	MLP *MLPWeights

	// MoE path (NumExperts > 0):
	Router  Weight // d_model x NumExperts gate layer
	Experts []*MLPWeights
}

// Model is a complete decoder-only transformer. The parameter tensors are
// treated as read-only during inference except by the memory-fault
// injector, which requires exclusive access for flip/restore (campaigns
// serialize memory-fault trials per model instance, as the paper does).
type Model struct {
	Cfg Config

	Embed     *tensor.Tensor // Vocab x DModel
	Blocks    []*Block
	FinalNorm []float32
	LMHead    Weight // DModel x Vocab

	// ropeCos/ropeSin cache cos/sin tables per position and rotary pair.
	ropeCos, ropeSin [][]float32

	hooks []Hook

	// attnHooks observe the post-attention activation row per block per
	// step (see AddAttnHook) — the injection point for transient
	// attention-path faults.
	attnHooks []Hook

	// threads bounds the goroutines one forward pass may use — batched
	// prefill for its matmuls, a decode batch step for its row shards
	// (0 = GOMAXPROCS). Campaigns set it per worker clone so the worker
	// pool cannot oversubscribe the machine.
	threads int

	// sharedWeights marks a CloneShared copy: parameter storage is shared
	// with the parent and must be privatized (copy-on-write) before any
	// in-place mutation. privatized tracks which layers this clone owns.
	sharedWeights bool
	privatized    map[LayerRef]bool

	// seqPrefill pins State.Prefill to the seed per-token reference loop;
	// golden tests and before/after benchmarks flip it.
	seqPrefill bool

	// checker, when non-nil, verifies every linear-layer output after the
	// forward hooks ran and before requantization (internal/abft). Like
	// hooks, it is not copied by Clone/CloneShared: each campaign worker
	// arms its own.
	checker LinearChecker
}

// SetThreads bounds the goroutines one forward pass on m may use (0
// restores the GOMAXPROCS default): batched prefill splits each matmul's
// rows over them, Batch.Step its decode rows. A campaign running W
// workers sets each worker clone to GOMAXPROCS/W, min 1.
func (m *Model) SetThreads(n int) { m.threads = n }

// matmulThreads resolves the effective thread budget.
func (m *Model) matmulThreads() int {
	if m.threads > 0 {
		return m.threads
	}
	return runtime.GOMAXPROCS(0)
}

// SetSequentialPrefill routes State.Prefill through the seed per-token
// loop instead of the batched pass. The two are bit-identical (enforced
// by golden tests); this exists so tests and benchmarks can compare
// against the reference path.
func (m *Model) SetSequentialPrefill(on bool) { m.seqPrefill = on }

// SharesWeights reports whether this model is a copy-on-write clone whose
// parameter storage is shared with its parent.
func (m *Model) SharesWeights() bool { return m.sharedWeights }

// Hook observes (and may modify in place) the output vector of a linear
// layer during a decode step. step is the absolute token position being
// computed. This is the software analogue of PyTorch forward hooks used
// for computational fault injection (§3.2).
type Hook func(ref LayerRef, step int, out []float32)

// AddHook registers h; hooks run in registration order.
func (m *Model) AddHook(h Hook) { m.hooks = append(m.hooks, h) }

// PopHook removes the most recently added hook, leaving earlier hooks
// installed. The tracing layer uses it to unwind a baseline-capture or
// probe hook without disturbing a campaign's ExtraHook.
func (m *Model) PopHook() {
	if n := len(m.hooks); n > 0 {
		m.hooks = m.hooks[:n-1]
	}
}

// AddAttnHook registers h on the attention-activation surface: it fires
// once per block per position — every DecodeStep and every prompt
// position of Prefill — on the post-attention row (ref kind KindAttnAct),
// after the head outputs are mixed and before the out_proj GEMM consumes
// them. This is a separate slot from the linear-layer
// hooks so activation-surface injection never perturbs what the linear
// hooks (probes, ABFT baselines) observe; with no attention hooks
// registered the decode path is bit-identical by construction — nothing
// runs.
func (m *Model) AddAttnHook(h Hook) { m.attnHooks = append(m.attnHooks, h) }

// ClearAttnHooks removes all attention-activation hooks.
func (m *Model) ClearAttnHooks() { m.attnHooks = nil }

// runAttnHooks fires the attention-surface hooks on one activation row.
func (m *Model) runAttnHooks(ref LayerRef, pos int, out []float32) {
	for _, h := range m.attnHooks {
		h(ref, pos, out)
	}
}

// LinearChecker verifies — and under a correcting policy may repair in
// place — the output vector of a linear layer. CheckLinear runs after the
// forward hooks (so it observes injected faults exactly as a deployed
// detector would) and before requantization to the model datatype. in is
// the input activation row the layer consumed; implementations must not
// retain in or out past the call. Unlike Hook this carries the layer's
// weight and input, which checksum-based detection (internal/abft) needs
// to form the expected output checksum and to recompute a flagged row.
type LinearChecker interface {
	CheckLinear(ref LayerRef, pos int, w Weight, in, out []float32)
}

// SetChecker installs (nil removes) the model's linear checker. Exactly
// one checker may be active; the campaign engine arms one per trial on
// each worker's clone.
func (m *Model) SetChecker(c LinearChecker) { m.checker = c }

// Observed reports whether anything is registered on the model itself —
// a hook, an attention hook or a checker — that a forward pass over it
// shows every position to.
func (m *Model) Observed() bool {
	return len(m.hooks) > 0 || len(m.attnHooks) > 0 || m.checker != nil
}

// ClearHooks removes all hooks.
func (m *Model) ClearHooks() { m.hooks = nil }

// runHooks invokes registered hooks for a layer output.
func (m *Model) runHooks(ref LayerRef, step int, out []float32) {
	for _, h := range m.hooks {
		h(ref, step, out)
	}
}

// Clone returns a deep copy of the model sharing no mutable state with
// the original. Rotary tables (immutable) are shared.
func (m *Model) Clone() *Model {
	nm := &Model{
		Cfg:        m.Cfg,
		Embed:      m.Embed.Clone(),
		FinalNorm:  append([]float32(nil), m.FinalNorm...),
		LMHead:     m.LMHead.CloneWeight(),
		ropeCos:    m.ropeCos,
		ropeSin:    m.ropeSin,
		threads:    m.threads,
		seqPrefill: m.seqPrefill,
	}
	cloneMLP := func(w *MLPWeights) *MLPWeights {
		if w == nil {
			return nil
		}
		return &MLPWeights{
			WGate: w.WGate.CloneWeight(),
			WUp:   w.WUp.CloneWeight(),
			WDown: w.WDown.CloneWeight(),
		}
	}
	for _, blk := range m.Blocks {
		nb := &Block{
			AttnNorm: append([]float32(nil), blk.AttnNorm...),
			MLPNorm:  append([]float32(nil), blk.MLPNorm...),
			Wq:       blk.Wq.CloneWeight(),
			Wk:       blk.Wk.CloneWeight(),
			Wv:       blk.Wv.CloneWeight(),
			Wo:       blk.Wo.CloneWeight(),
			MLP:      cloneMLP(blk.MLP),
		}
		if blk.Router != nil {
			nb.Router = blk.Router.CloneWeight()
			for _, ex := range blk.Experts {
				nb.Experts = append(nb.Experts, cloneMLP(ex))
			}
		}
		nm.Blocks = append(nm.Blocks, nb)
	}
	return nm
}

// CloneShared returns a copy-on-write clone: block and MLP structure is
// duplicated so weight slots can be swapped per clone, but every weight,
// the embedding table, and the norm gains are SHARED with the receiver.
// Hooks are not copied — each clone arms its own faults and mitigations.
//
// Sharing is sound because inference treats parameters as read-only:
// computational faults and mitigations mutate activations through hooks,
// never weights. The one writer is the memory-fault injector, and
// LayerForWrite privatizes the single targeted weight before it flips —
// collapsing per-worker campaign memory from O(model) to O(KV cache).
func (m *Model) CloneShared() *Model {
	nm := &Model{
		Cfg:           m.Cfg,
		Embed:         m.Embed,
		FinalNorm:     m.FinalNorm,
		LMHead:        m.LMHead,
		ropeCos:       m.ropeCos,
		ropeSin:       m.ropeSin,
		threads:       m.threads,
		seqPrefill:    m.seqPrefill,
		sharedWeights: true,
	}
	shareMLP := func(w *MLPWeights) *MLPWeights {
		if w == nil {
			return nil
		}
		cp := *w
		return &cp
	}
	for _, blk := range m.Blocks {
		nb := &Block{
			AttnNorm: blk.AttnNorm,
			MLPNorm:  blk.MLPNorm,
			Wq:       blk.Wq,
			Wk:       blk.Wk,
			Wv:       blk.Wv,
			Wo:       blk.Wo,
			MLP:      shareMLP(blk.MLP),
		}
		if blk.Router != nil {
			nb.Router = blk.Router
			for _, ex := range blk.Experts {
				nb.Experts = append(nb.Experts, shareMLP(ex))
			}
		}
		nm.Blocks = append(nm.Blocks, nb)
	}
	return nm
}

// LayerInfo pairs a layer address with its weight for site enumeration.
type LayerInfo struct {
	Ref    LayerRef
	Weight Weight
}

// LinearLayers enumerates every linear layer inside the transformer
// blocks (the paper's injection sites: ~94% of compute). The LM head is
// excluded, matching §3.2. Order is deterministic.
func (m *Model) LinearLayers() []LayerInfo {
	var out []LayerInfo
	for b, blk := range m.Blocks {
		out = append(out,
			LayerInfo{LayerRef{b, KindQ, -1}, blk.Wq},
			LayerInfo{LayerRef{b, KindK, -1}, blk.Wk},
			LayerInfo{LayerRef{b, KindV, -1}, blk.Wv},
			LayerInfo{LayerRef{b, KindOut, -1}, blk.Wo},
		)
		if blk.MLP != nil {
			out = append(out,
				LayerInfo{LayerRef{b, KindGate, -1}, blk.MLP.WGate},
				LayerInfo{LayerRef{b, KindUp, -1}, blk.MLP.WUp},
				LayerInfo{LayerRef{b, KindDown, -1}, blk.MLP.WDown},
			)
		}
		if blk.Router != nil {
			out = append(out, LayerInfo{LayerRef{b, KindRouter, -1}, blk.Router})
			for e, ex := range blk.Experts {
				out = append(out,
					LayerInfo{LayerRef{b, KindGate, e}, ex.WGate},
					LayerInfo{LayerRef{b, KindUp, e}, ex.WUp},
					LayerInfo{LayerRef{b, KindDown, e}, ex.WDown},
				)
			}
		}
	}
	return out
}

// Layer returns the weight addressed by ref (including KindLMHead), or an
// error if the address does not exist in this model.
func (m *Model) Layer(ref LayerRef) (Weight, error) {
	slot, err := m.layerSlot(ref)
	if err != nil {
		return nil, err
	}
	return *slot, nil
}

// LayerForWrite returns the weight addressed by ref for in-place
// mutation. On a CloneShared model the weight is first privatized — the
// copy-on-write step — so flips never reach the parent or sibling clones;
// repeated writes to the same layer reuse the private copy.
func (m *Model) LayerForWrite(ref LayerRef) (Weight, error) {
	slot, err := m.layerSlot(ref)
	if err != nil {
		return nil, err
	}
	if m.sharedWeights && !m.privatized[ref] {
		*slot = (*slot).CloneWeight()
		if m.privatized == nil {
			m.privatized = map[LayerRef]bool{}
		}
		m.privatized[ref] = true
	}
	return *slot, nil
}

// NormForWrite returns the RMSNorm gain vector addressed by ref —
// KindAttnNorm or KindMLPNorm with a block index, or KindFinalNorm with
// Block = -1 — for in-place mutation. On a CloneShared model the vector
// is first privatized, exactly like LayerForWrite: norm gains are shared
// by reference across clones, so a flip through the shared slice would
// corrupt every sibling's inference. Repeated writes reuse the private
// copy.
func (m *Model) NormForWrite(ref LayerRef) ([]float32, error) {
	slot, err := m.normSlot(ref)
	if err != nil {
		return nil, err
	}
	if m.sharedWeights && !m.privatized[ref] {
		*slot = append([]float32(nil), *slot...)
		if m.privatized == nil {
			m.privatized = map[LayerRef]bool{}
		}
		m.privatized[ref] = true
	}
	return *slot, nil
}

// normSlot returns a pointer to the gain-vector field addressed by ref.
func (m *Model) normSlot(ref LayerRef) (*[]float32, error) {
	if ref.Kind == KindFinalNorm {
		return &m.FinalNorm, nil
	}
	if ref.Block < 0 || ref.Block >= len(m.Blocks) {
		return nil, fmt.Errorf("model: block %d out of range", ref.Block)
	}
	switch ref.Kind {
	case KindAttnNorm:
		return &m.Blocks[ref.Block].AttnNorm, nil
	case KindMLPNorm:
		return &m.Blocks[ref.Block].MLPNorm, nil
	}
	return nil, fmt.Errorf("model: %v is not a norm gain", ref)
}

// embedRef is the privatization key for the shared embedding table.
var embedRef = LayerRef{-1, KindEmbed, -1}

// EmbedForWrite returns the token embedding table for in-place mutation,
// privatizing it on a CloneShared model first (the table is O(Vocab ×
// DModel) — by far the largest privatization — but only embedding-fault
// trials pay it).
func (m *Model) EmbedForWrite() *tensor.Tensor {
	if m.sharedWeights && !m.privatized[embedRef] {
		m.Embed = m.Embed.Clone()
		if m.privatized == nil {
			m.privatized = map[LayerRef]bool{}
		}
		m.privatized[embedRef] = true
	}
	return m.Embed
}

// layerSlot returns a pointer to the Weight field addressed by ref.
func (m *Model) layerSlot(ref LayerRef) (*Weight, error) {
	if ref.Kind == KindLMHead {
		return &m.LMHead, nil
	}
	if ref.Block < 0 || ref.Block >= len(m.Blocks) {
		return nil, fmt.Errorf("model: block %d out of range", ref.Block)
	}
	blk := m.Blocks[ref.Block]
	switch ref.Kind {
	case KindQ:
		return &blk.Wq, nil
	case KindK:
		return &blk.Wk, nil
	case KindV:
		return &blk.Wv, nil
	case KindOut:
		return &blk.Wo, nil
	case KindRouter:
		if blk.Router == nil {
			return nil, fmt.Errorf("model: %v has no router (dense model)", ref)
		}
		return &blk.Router, nil
	case KindGate, KindUp, KindDown:
		mlp := blk.MLP
		if ref.Expert >= 0 {
			if blk.Experts == nil || ref.Expert >= len(blk.Experts) {
				return nil, fmt.Errorf("model: %v expert out of range", ref)
			}
			mlp = blk.Experts[ref.Expert]
		}
		if mlp == nil {
			return nil, fmt.Errorf("model: %v has no MLP weights", ref)
		}
		switch ref.Kind {
		case KindGate:
			return &mlp.WGate, nil
		case KindUp:
			return &mlp.WUp, nil
		default:
			return &mlp.WDown, nil
		}
	default:
		return nil, fmt.Errorf("model: unknown layer kind %v", ref.Kind)
	}
}
