// Package faults implements the fault models and injection mechanisms of
// §3.1–3.2:
//
//   - 1bit-comp / 2bits-comp: transient computational faults modeled as
//     bit flips in one neuron of a linear layer's output tensor during a
//     single (randomly chosen) token-generation iteration, applied
//     through the model's forward-hook mechanism — the PyTorchFI-style
//     approach.
//   - 2bits-mem: a double-bit memory fault (the ECC-uncorrectable case)
//     modeled as flipping two bits of one stored weight before the
//     inference and restoring them afterwards ("flip the same bits back
//     to their fault-free values", §3.2).
//
// Injection sites are sampled uniformly over the linear layers of the
// transformer blocks, their weight/neuron coordinates, and the bit
// positions of the storage format, exactly the statistical-FI estimator
// of the paper.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/prng"
)

// Model enumerates the studied fault models.
type Model int

const (
	// Comp1Bit is a single-bit computational fault.
	Comp1Bit Model = iota
	// Comp2Bit is a double-bit computational fault.
	Comp2Bit
	// Mem2Bit is a double-bit (ECC-uncorrectable) memory fault.
	Mem2Bit
)

// String names the fault model as in the paper's figures.
func (fm Model) String() string {
	switch fm {
	case Comp1Bit:
		return "1bit-comp"
	case Comp2Bit:
		return "2bits-comp"
	case Mem2Bit:
		return "2bits-mem"
	default:
		return fmt.Sprintf("Model(%d)", int(fm))
	}
}

// Models lists all fault models.
var Models = []Model{Comp1Bit, Comp2Bit, Mem2Bit}

// IsMemory reports whether the fault persists in weights across the whole
// inference (vs. a transient computational fault).
func (fm Model) IsMemory() bool { return fm == Mem2Bit }

// NumBits returns how many bits the fault flips.
func (fm Model) NumBits() int {
	if fm == Comp1Bit {
		return 1
	}
	return 2
}

// Site fully describes one injection: the layer, the element coordinates,
// the flipped bit positions, and — for computational faults — the token
// generation iteration during which the transient occurs.
type Site struct {
	Fault Model
	// Surface selects what the fault strikes. The zero value is
	// SurfaceLinear — the PR≤7 linear-layer site — so gob checkpoints
	// and call sites written before the surface taxonomy decode and
	// behave unchanged.
	Surface Surface
	Layer   model.LayerRef
	// Row, Col locate the weight for memory faults. For computational
	// faults only Col is used: it is the neuron index within the layer's
	// output vector. Non-linear surfaces reuse them (SampleKV: Row is
	// the struck cache position; SampleEmbed: Row is the token id).
	Row, Col int
	// Bits are the flipped bit positions (0 = LSB of the storage format).
	Bits []int
	// GenIter is the generation iteration (0 = first generated token) at
	// which a computational fault strikes. Ignored for memory faults,
	// which corrupt the weight for the entire inference.
	GenIter int
}

// HighestBit returns the largest flipped bit position — the grouping key
// of Figures 9–10.
func (s Site) HighestBit() int {
	hb := -1
	for _, b := range s.Bits {
		if b > hb {
			hb = b
		}
	}
	return hb
}

// String renders a compact site descriptor.
func (s Site) String() string {
	switch s.Surface {
	case SurfaceKV:
		return fmt.Sprintf("%v kv %v cache(t%d,d%d) iter%d bits%v",
			s.Fault, s.Layer, s.Row, s.Col, s.GenIter, s.Bits)
	case SurfaceNorm:
		return fmt.Sprintf("%v norm %s g%d bits%v", s.Fault, normName(s.Layer), s.Col, s.Bits)
	case SurfaceEmbed:
		return fmt.Sprintf("%v embed w(%d,%d) bits%v", s.Fault, s.Row, s.Col, s.Bits)
	case SurfaceAttn:
		return fmt.Sprintf("%v attn %v n%d iter%d bits%v", s.Fault, s.Layer, s.Col, s.GenIter, s.Bits)
	}
	if s.Fault.IsMemory() {
		return fmt.Sprintf("%v %v w(%d,%d) bits%v", s.Fault, s.Layer, s.Row, s.Col, s.Bits)
	}
	return fmt.Sprintf("%v %v n%d iter%d bits%v", s.Fault, s.Layer, s.Col, s.GenIter, s.Bits)
}

// normName renders a norm-gain address without the "block-1." artifact
// the generic LayerRef form would give the final norm.
func normName(ref model.LayerRef) string {
	if ref.Kind == model.KindFinalNorm {
		return "final_norm"
	}
	return ref.String()
}

// WeightResident reports whether the armed fault lives in parameter
// storage for the whole inference — norm/embedding flips and linear
// memory faults — rather than striking transient per-request state
// (activations, KV cache). Weight-resident faults cannot be scoped to
// one row of a shared decode batch: concurrent schedulers must run them
// on a private copy-on-write clone (the serving engine's serial path),
// exactly as offline campaigns serialize memory-fault trials per model
// instance.
func (s Site) WeightResident() bool {
	switch s.Surface {
	case SurfaceNorm, SurfaceEmbed:
		return true
	case SurfaceLinear:
		return s.Fault.IsMemory()
	}
	return false
}

// TargetFilter restricts which layers a sampler may pick. Nil accepts all
// transformer-block linear layers.
type TargetFilter func(model.LayerRef) bool

// GateOnly restricts injection to MoE router (gate) layers — the
// Figure 15 campaign.
func GateOnly(ref model.LayerRef) bool { return ref.Kind == model.KindRouter }

// Sampler draws injection sites for a model following §3.2's hierarchy:
// "the block ID is randomly selected among all decoder blocks, and the
// layer ID is the type of the target linear layer" — i.e. a uniform
// block, then a uniform layer *type* within that block, then (for MoE
// expert layers) a uniform expert. This weighting matters: sampling
// uniformly over weight instances instead would make an 8-expert MoE
// absorb 8x more MLP faults into cold experts, silently inflating its
// apparent resilience.
type Sampler struct {
	// buckets[block][kind] lists the layer instances of that type.
	buckets map[int]map[model.LayerKind][]model.LayerInfo
	blocks  []int
	kinds   map[int][]model.LayerKind
	m       *model.Model
}

// NewSampler enumerates the injectable layers of m, optionally filtered.
func NewSampler(m *model.Model, filter TargetFilter) (*Sampler, error) {
	sp := &Sampler{
		buckets: map[int]map[model.LayerKind][]model.LayerInfo{},
		kinds:   map[int][]model.LayerKind{},
		m:       m,
	}
	for _, li := range m.LinearLayers() {
		if filter != nil && !filter(li.Ref) {
			continue
		}
		bk := sp.buckets[li.Ref.Block]
		if bk == nil {
			bk = map[model.LayerKind][]model.LayerInfo{}
			sp.buckets[li.Ref.Block] = bk
			sp.blocks = append(sp.blocks, li.Ref.Block)
		}
		if len(bk[li.Ref.Kind]) == 0 {
			sp.kinds[li.Ref.Block] = append(sp.kinds[li.Ref.Block], li.Ref.Kind)
		}
		bk[li.Ref.Kind] = append(bk[li.Ref.Kind], li)
	}
	if len(sp.blocks) == 0 {
		return nil, fmt.Errorf("faults: no injectable layers after filtering")
	}
	sort.Ints(sp.blocks)
	return sp, nil
}

// pickLayer draws block -> layer type -> instance.
func (sp *Sampler) pickLayer(src *prng.Source) model.LayerInfo {
	block := sp.blocks[src.Intn(len(sp.blocks))]
	kinds := sp.kinds[block]
	kind := kinds[src.Intn(len(kinds))]
	instances := sp.buckets[block][kind]
	return instances[src.Intn(len(instances))]
}

// Sample draws one site for fault model fm. maxGenIters bounds the
// generation iteration for computational faults (use the task's
// MaxNewTokens; 1 for single-scoring-pass tasks).
func (sp *Sampler) Sample(src *prng.Source, fm Model, maxGenIters int) Site {
	li := sp.pickLayer(src)
	w := li.Weight
	site := Site{Fault: fm, Layer: li.Ref}

	var nbits int
	if fm.IsMemory() {
		site.Row = src.Intn(w.In())
		site.Col = src.Intn(w.Out())
		nbits = w.StorageBits()
	} else {
		site.Col = src.Intn(w.Out())
		nbits = sp.m.Cfg.DType.Bits()
		if maxGenIters < 1 {
			maxGenIters = 1
		}
		site.GenIter = src.Intn(maxGenIters)
	}
	site.Bits = distinctBits(src, fm.NumBits(), nbits)
	return site
}

// distinctBits draws k distinct positions in [0, n).
func distinctBits(src *prng.Source, k, n int) []int {
	if k > n {
		k = n
	}
	picked := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		b := src.Intn(n)
		if !picked[b] {
			picked[b] = true
			out = append(out, b)
		}
	}
	sort.Ints(out)
	return out
}
