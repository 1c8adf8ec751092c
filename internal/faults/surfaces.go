// Fault surfaces beyond the linear-layer outputs: KV-cache residence,
// RMSNorm gains, embedding rows, and transient attention-path
// activations — the modular injection targets GoldenTransformer
// (PAPERS.md) studies and the paper's §3.2 taxonomy stops short of.
// Each surface keeps the statistical-FI estimator shape: uniform over
// the surface's instances, coordinates, and storage-bit positions, with
// transient surfaces striking one uniformly chosen generation iteration.
package faults

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/prng"
)

// Surface selects what a fault site strikes. One byte, packed beside
// Site.Fault.
type Surface int8

const (
	// SurfaceLinear is a linear layer's output (computational faults) or
	// weight storage (memory faults) — the original §3.2 site and the
	// zero value, so pre-surface Sites decode unchanged from gob.
	SurfaceLinear Surface = iota
	// SurfaceKV flips bits of one stored KV-cache element: the value was
	// computed clean, corrupted at rest, and every subsequent attention
	// read consumes the corruption. Transient per-request state.
	SurfaceKV
	// SurfaceNorm flips bits of one RMSNorm gain element (attention,
	// MLP, or final norm) for the whole inference — weight-resident.
	SurfaceNorm
	// SurfaceEmbed flips bits of one embedding-table element for the
	// whole inference — weight-resident.
	SurfaceEmbed
	// SurfaceAttn flips bits of the post-attention activation row
	// (before out_proj) during a single generation iteration — the
	// attention-path analogue of a computational fault, delivered
	// through the model's attention-hook slot.
	SurfaceAttn
)

// Surfaces lists every injection surface.
var Surfaces = []Surface{SurfaceLinear, SurfaceKV, SurfaceNorm, SurfaceEmbed, SurfaceAttn}

// String names the surface as used in flags and reports.
func (s Surface) String() string {
	switch s {
	case SurfaceLinear:
		return "linear"
	case SurfaceKV:
		return "kv"
	case SurfaceNorm:
		return "norm"
	case SurfaceEmbed:
		return "embed"
	case SurfaceAttn:
		return "attn"
	default:
		return fmt.Sprintf("Surface(%d)", int(s))
	}
}

// ParseSurface resolves a surface name used on command lines.
func ParseSurface(name string) (Surface, error) {
	for _, s := range Surfaces {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown surface %q (want linear, kv, norm, embed, or attn)", name)
}

// Runtime-state surfaces (KV cache, attention activations) flip bits in
// the FP32 pattern: the engine's caches and activation rows are float32
// storage regardless of the model's logical weight datatype, so that is
// the physical word a particle would strike. Norm gains and the
// embedding table are likewise kept as unquantized float32 storage by
// the model builder (only Weight-interface parameters are rounded to
// Cfg.DType), so their memory faults use the FP32 pattern too.
const surfaceBits = 32

// SampleKV draws a KV-cache site for m: uniform block, K or V plane,
// strike iteration g in [0, maxGenIters), struck cache position in
// [0, promptLen+g) (any row written before the strike), and dimension.
// The strike (Injection.BeforeStep) lands before decode iteration g
// computes.
func SampleKV(src *prng.Source, m *model.Model, fm Model, maxGenIters, promptLen int) Site {
	if maxGenIters < 1 {
		maxGenIters = 1
	}
	if promptLen < 1 {
		promptLen = 1
	}
	kind := model.KindK
	if src.Intn(2) == 1 {
		kind = model.KindV
	}
	g := src.Intn(maxGenIters)
	return Site{
		Fault:   fm,
		Surface: SurfaceKV,
		Layer:   model.LayerRef{Block: src.Intn(m.Cfg.NBlocks), Kind: kind, Expert: -1},
		Row:     src.Intn(promptLen + g),
		Col:     src.Intn(m.Cfg.DModel),
		GenIter: g,
		Bits:    distinctBits(src, fm.NumBits(), surfaceBits),
	}
}

// SampleNorm draws a norm-gain site: uniform over the 2·NBlocks+1 gain
// vectors (attention and MLP norms per block, plus the final norm), then
// a uniform element. Weight-resident.
func SampleNorm(src *prng.Source, m *model.Model, fm Model) Site {
	n := 2*m.Cfg.NBlocks + 1
	pick := src.Intn(n)
	ref := model.LayerRef{Block: -1, Kind: model.KindFinalNorm, Expert: -1}
	if pick < 2*m.Cfg.NBlocks {
		kind := model.KindAttnNorm
		if pick%2 == 1 {
			kind = model.KindMLPNorm
		}
		ref = model.LayerRef{Block: pick / 2, Kind: kind, Expert: -1}
	}
	return Site{
		Fault:   fm,
		Surface: SurfaceNorm,
		Layer:   ref,
		Col:     src.Intn(m.Cfg.DModel),
		Bits:    distinctBits(src, fm.NumBits(), surfaceBits),
	}
}

// SampleEmbed draws an embedding-table site: uniform token row and
// dimension. Weight-resident.
func SampleEmbed(src *prng.Source, m *model.Model, fm Model) Site {
	return Site{
		Fault:   fm,
		Surface: SurfaceEmbed,
		Layer:   model.LayerRef{Block: -1, Kind: model.KindEmbed, Expert: -1},
		Row:     src.Intn(m.Cfg.Vocab),
		Col:     src.Intn(m.Cfg.DModel),
		Bits:    distinctBits(src, fm.NumBits(), surfaceBits),
	}
}

// SampleAttn draws an attention-activation site: uniform block, neuron
// of the concatenated head outputs, and strike iteration; the strike is
// Injection.AttnHook.
func SampleAttn(src *prng.Source, m *model.Model, fm Model, maxGenIters int) Site {
	if maxGenIters < 1 {
		maxGenIters = 1
	}
	return Site{
		Fault:   fm,
		Surface: SurfaceAttn,
		Layer:   model.LayerRef{Block: src.Intn(m.Cfg.NBlocks), Kind: model.KindAttnAct, Expert: -1},
		Col:     src.Intn(m.Cfg.DModel),
		GenIter: src.Intn(maxGenIters),
		Bits:    distinctBits(src, fm.NumBits(), surfaceBits),
	}
}

// SampleSurface dispatches to the surface's sampler. sp is consulted for
// SurfaceLinear only (it may be nil otherwise); promptLen bounds the KV
// strike position.
func SampleSurface(src *prng.Source, sp *Sampler, m *model.Model, surf Surface, fm Model, maxGenIters, promptLen int) (Site, error) {
	switch surf {
	case SurfaceLinear:
		if sp == nil {
			return Site{}, fmt.Errorf("faults: SurfaceLinear needs a Sampler")
		}
		return sp.Sample(src, fm, maxGenIters), nil
	case SurfaceKV:
		return SampleKV(src, m, fm, maxGenIters, promptLen), nil
	case SurfaceNorm:
		return SampleNorm(src, m, fm), nil
	case SurfaceEmbed:
		return SampleEmbed(src, m, fm), nil
	case SurfaceAttn:
		return SampleAttn(src, m, fm, maxGenIters), nil
	}
	return Site{}, fmt.Errorf("faults: unknown surface %v", surf)
}
