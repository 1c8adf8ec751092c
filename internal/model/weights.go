package model

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"runtime"
	"sync"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

// Weight is a linear layer's parameter matrix, abstracted so that dense
// floating-point storage and quantized integer storage (internal/quant)
// are interchangeable. Inference only ever reads it: a memory fault is a
// read-time overlay over the clean storage (Struck), never a write.
type Weight interface {
	// In returns the input dimension (rows of the matrix).
	In() int
	// Out returns the output dimension (columns).
	Out() int
	// Forward computes out = x · W for a single row vector x.
	Forward(out, x []float32)
	// Get returns the effective (dequantized) value at (r, c).
	Get(r, c int) float64
	// Struck returns the weight with the listed storage-bit positions of
	// element (r, c) flipped — §3.2's memory fault — as a read-only view
	// over the receiver, whose storage it never writes.
	Struck(r, c int, bits []int) *StruckWeight
	// StorageBits returns the number of addressable bits per element.
	StorageBits() int
	// CloneWeight returns an independent deep copy.
	CloneWeight() Weight
}

// StruckWeight is a Weight with one element struck (Weight.Struck). A
// flipped W[Row][Col] changes only output column Col of x · W, and every
// Forward sums each column on its own, so the view's Forward is the clean
// product with that one column recomputed: column sums it in the clean
// weight's own Forward order, with its ±0 skip, reading the struck
// element in place of the stored one — bit for bit the column Forward
// over flipped storage would give.
type StruckWeight struct {
	Weight   // the clean weight
	Row, Col int
	value    float64
	column   func(x []float32) float32
}

// NewStruck is the view of w with element (r, c) struck: value is the
// struck element's effective value and column computes output column c of
// x · W with it. Weight implementations build their Struck with it.
func NewStruck(w Weight, r, c int, value float64, column func(x []float32) float32) *StruckWeight {
	return &StruckWeight{Weight: w, Row: r, Col: c, value: value, column: column}
}

// Forward computes out = x · W with the struck element.
func (s *StruckWeight) Forward(out, x []float32) {
	s.Weight.Forward(out, x)
	out[s.Col] = s.column(x)
}

// Get returns the effective value at (r, c), the struck one at (Row, Col).
func (s *StruckWeight) Get(r, c int) float64 {
	if r == s.Row && c == s.Col {
		return s.value
	}
	return s.Weight.Get(r, c)
}

// Struck panics: one weight carries at most one strike.
func (s *StruckWeight) Struck(int, int, []int) *StruckWeight {
	panic("model: striking a weight that is already struck")
}

// CloneWeight returns the view itself: it is read-only, and so is the
// storage under it.
func (s *StruckWeight) CloneWeight() Weight { return s }

// Dense is a Weight backed by a float32 tensor whose elements logically
// live in DT: they are pre-rounded to DT at construction, and a strike
// flips bits of the DT pattern (so a BF16 model's weights can reach
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

// Struck returns the view of d with the given bit positions of element
// (r, c) flipped in the DT representation. Its column is the row kernel's
// per-column sequence (tensor.MatVecStrided): from +0, p ascending,
// ±0 inputs skipped, one float32 multiply and add per input.
func (d *Dense) Struck(r, c int, bits []int) *StruckWeight {
	v := float32(numerics.FlipBits(d.DT, float64(d.T.At(r, c)), bits...))
	n := d.T.Cols
	return NewStruck(d, r, c, float64(v), func(x []float32) float32 {
		var s float32
		off := c
		for p, xv := range x {
			if xv != 0 {
				w := d.T.Data[off]
				if p == r {
					w = v
				}
				s += xv * w
			}
			off += n
		}
		return s
	})
}

// FlipBits flips the given bit positions of element (r, c) in the DT
// representation in place and returns a restorer. Inference never calls
// it; it is the storage-flip oracle the overlay (Struck) is pinned to.
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

// Model is a complete decoder-only transformer. Inference never writes
// its parameter tensors: a weight-resident fault is a Strike the forward
// pass reads (Observers), so any number of goroutines may run over one
// model's weights. The model carries no observers; each State runs under
// its own.
type Model struct {
	Cfg Config

	Embed     *tensor.Tensor // Vocab x DModel
	Blocks    []*Block
	FinalNorm []float32
	LMHead    Weight // DModel x Vocab

	// ropeCos/ropeSin cache cos/sin tables per position and rotary pair.
	ropeCos, ropeSin [][]float32

	// threads bounds the goroutines one forward pass may use — a prefill
	// for its row shards, a decode batch step for its rows (0 =
	// GOMAXPROCS). Campaigns set it per worker clone so the worker pool
	// cannot oversubscribe the machine.
	threads int

	// stacks pools prefill scratch (prefillStack). Not copied by
	// Clone/CloneShared: each model starts its own.
	stacks sync.Pool

	// sharedWeights marks a CloneShared copy: parameter storage is shared
	// with the parent and must be privatized (copy-on-write) before any
	// in-place mutation. privatized tracks which layers this clone owns.
	sharedWeights bool
	privatized    map[LayerRef]bool

	// seqPrefill pins State.Prefill to the seed per-token reference loop;
	// golden tests and before/after benchmarks flip it.
	seqPrefill bool

	// paramOnce guards paramHash (ParamHash); a clone hashes anew.
	paramOnce sync.Once
	paramHash uint64
}

// ParamHash is a CRC-64 of m's config and of every parameter's storage
// format and bits (a quantized weight's by each element's exact value),
// so models one weight bit apart hash apart. It is computed once and
// kept: inference never writes a parameter (a fault is an overlay).
func (m *Model) ParamHash() uint64 {
	m.paramOnce.Do(func() {
		// A hash's Write never fails, so no write below is checked.
		h, le := crc64.New(crc64.MakeTable(crc64.ECMA)), binary.LittleEndian
		fmt.Fprintf(h, "%+v", m.Cfg)
		binary.Write(h, le, m.Embed.Data)
		binary.Write(h, le, m.FinalNorm)
		for _, blk := range m.Blocks {
			binary.Write(h, le, blk.AttnNorm)
			binary.Write(h, le, blk.MLPNorm)
		}
		for _, li := range append(m.LinearLayers(), LayerInfo{Weight: m.LMHead}) {
			w := li.Weight
			fmt.Fprintf(h, "|%T:%d:%dx%d|", w, w.StorageBits(), w.In(), w.Out())
			if d, ok := w.(*Dense); ok {
				binary.Write(h, le, d.T.Data)
				continue
			}
			for r := 0; r < w.In(); r++ {
				for c := 0; c < w.Out(); c++ {
					binary.Write(h, le, w.Get(r, c))
				}
			}
		}
		m.paramHash = h.Sum64()
	})
	return m.paramHash
}

// SetThreads bounds the goroutines one forward pass on m may use (0
// restores the GOMAXPROCS default): a prefill runs its rows in shards
// over them (forwardStack). A decode step never shards (Batch.Step): a
// budget above one buys decode lanes instead, independent loops that
// never join — a campaign worker's (core) or the serving engine's
// (serve.Engine.Run), each sized by Threads.
func (m *Model) SetThreads(n int) { m.threads = n }

// Threads returns the thread budget: SetThreads's, or GOMAXPROCS.
func (m *Model) Threads() int {
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

// Hook observes (and may modify in place) the output vector of a linear
// layer during a decode step. step is the absolute token position being
// computed. This is the software analogue of PyTorch forward hooks used
// for computational fault injection (§3.2).
type Hook func(ref LayerRef, step int, out []float32)

// LinearChecker verifies — and under a correcting policy may repair in
// place — the output rows of a linear layer. CheckLinear runs after the
// forward hooks (so it observes injected faults exactly as a deployed
// detector would) and before requantization to the model datatype, once
// per run of a pass's rows that share the checker and the weight they
// read: a prefill's positions (one call per shard), one decode row. pos
// holds the rows' positions; in holds their input activation rows,
// len(in)/len(pos) each, back to back, and out their output rows,
// len(out)/len(pos) each. A checker may repair out; it must leave in
// untouched, and retain none of the three past the call. Unlike Hook this
// carries the layer's input, which checksum-based detection
// (internal/abft) needs to form the expected output checksum, and the
// weight the rows read, to recompute a flagged row through. w is nil when
// no hook touched the rows: each output is then in·w to the bit, and a
// recompute would reproduce it, corruption and all. Rows are
// grouped by comparing checkers with ==, so a checker's dynamic type must
// be comparable (a pointer is).
type LinearChecker interface {
	CheckLinear(ref LayerRef, w Weight, pos []int, in, out []float32)
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

// CloneShared returns a weight-sharing clone: block and MLP structure is
// duplicated so weight slots can be swapped per clone, but every weight,
// the embedding table, and the norm gains are SHARED with the receiver.
//
// Sharing is sound because inference never writes parameters:
// computational faults and mitigations mutate activations through hooks,
// and a weight-resident fault is a Strike read over the clean storage —
// observers a State carries, never the model. A
// caller that writes storage anyway goes through LayerForWrite, which
// privatizes the targeted weight first.
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

// Norm returns the RMSNorm gain vector addressed by ref — KindAttnNorm or
// KindMLPNorm with a block index, or KindFinalNorm with Block = -1.
// Callers must not write it.
func (m *Model) Norm(ref LayerRef) ([]float32, error) {
	var g []float32
	switch {
	case ref.Kind == KindFinalNorm:
		g = m.FinalNorm
	case ref.Block < 0 || ref.Block >= len(m.Blocks):
		return nil, fmt.Errorf("model: block %d out of range", ref.Block)
	case ref.Kind == KindAttnNorm:
		g = m.Blocks[ref.Block].AttnNorm
	case ref.Kind == KindMLPNorm:
		g = m.Blocks[ref.Block].MLPNorm
	default:
		return nil, fmt.Errorf("model: %v is not a norm gain", ref)
	}
	return g, nil
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
