// Package model implements the decoder-only transformer inference engine
// under study: Llama-architecture blocks (RMSNorm → multi-head causal
// attention with RoPE and a KV cache → RMSNorm → SwiGLU MLP), an optional
// top-k Mixture-of-Experts MLP with a router ("gate") layer, bit-exact
// datatype emulation, and forward hooks that the fault injector and the
// propagation tracer attach to (the PyTorch-hook mechanism of §3.2).
package model

import (
	"fmt"

	"repro/internal/numerics"
)

// Config describes a model architecture. All sizes are in elements, not
// bytes. The zero value is not usable; construct configs explicitly or
// via the profile helpers in profiles.go.
type Config struct {
	Name     string
	Vocab    int
	DModel   int // embedding width; must be divisible by NHeads
	NHeads   int
	NBlocks  int
	FFHidden int // SwiGLU hidden width (per expert, for MoE)
	MaxSeq   int
	Eps      float32 // RMSNorm epsilon
	DType    numerics.DType
	// RopeTheta is the rotary base frequency (Llama uses 10000 or 500000).
	RopeTheta float64
	// NumExperts > 0 replaces every MLP with a NumExperts-expert MoE
	// routed top-TopK by a gate layer (Figure 14's setup uses 2 of 8).
	NumExperts int
	TopK       int
}

// Validate reports a descriptive error for an inconsistent config.
func (c *Config) Validate() error {
	switch {
	case c.Vocab < token2: // at least reserved tokens + 1
		return fmt.Errorf("model: vocab %d too small", c.Vocab)
	case c.DModel <= 0 || c.NHeads <= 0 || c.DModel%c.NHeads != 0:
		return fmt.Errorf("model: d_model %d not divisible by heads %d", c.DModel, c.NHeads)
	case c.DModel/c.NHeads%2 != 0:
		return fmt.Errorf("model: head dim %d must be even for RoPE", c.DModel/c.NHeads)
	case c.NBlocks <= 0:
		return fmt.Errorf("model: need at least one block, got %d", c.NBlocks)
	case c.FFHidden <= 0:
		return fmt.Errorf("model: ff hidden %d invalid", c.FFHidden)
	case c.MaxSeq <= 0:
		return fmt.Errorf("model: max seq %d invalid", c.MaxSeq)
	case c.NumExperts < 0 || (c.NumExperts > 0 && (c.TopK <= 0 || c.TopK > c.NumExperts)):
		return fmt.Errorf("model: MoE top-%d of %d experts invalid", c.TopK, c.NumExperts)
	}
	return nil
}

const token2 = 5 // reserved ids + at least one real token

// HeadDim returns DModel / NHeads.
func (c *Config) HeadDim() int { return c.DModel / c.NHeads }

// IsMoE reports whether the config uses Mixture-of-Experts MLPs.
func (c *Config) IsMoE() bool { return c.NumExperts > 0 }

// NumParams returns the parameter count (embeddings + blocks + lm head).
func (c *Config) NumParams() int {
	d, ff := c.DModel, c.FFHidden
	attn := 4 * d * d
	mlp := 3 * d * ff
	perBlock := attn + mlp + 2*d // + two norm gains
	if c.IsMoE() {
		perBlock = attn + c.NumExperts*mlp + d*c.NumExperts + 2*d
	}
	return c.Vocab*d + c.NBlocks*perBlock + d + d*c.Vocab
}

// LayerKind identifies a linear layer type within a transformer block,
// matching the paper's injection-site taxonomy (q/k/v/out projections,
// gate/up/down projections, and the MoE router "gate layer").
type LayerKind int

const (
	// KindQ is the query projection.
	KindQ LayerKind = iota
	// KindK is the key projection.
	KindK
	// KindV is the value projection.
	KindV
	// KindOut is the attention output projection (out_proj).
	KindOut
	// KindGate is the MLP gate projection (gate_proj of SwiGLU).
	KindGate
	// KindUp is the MLP up projection (up_proj).
	KindUp
	// KindDown is the MLP down projection (down_proj).
	KindDown
	// KindRouter is the MoE gate (router) layer of Observation #6.
	KindRouter
	// KindLMHead is the output vocabulary projection. It is a linear layer
	// but lies outside the transformer blocks, so the paper's injection
	// campaigns exclude it; it is addressable for completeness.
	KindLMHead

	// The remaining kinds address non-linear fault surfaces
	// (GoldenTransformer's modular injection targets): they are not
	// weights in the Weight-interface sense and never appear in
	// LinearLayers, but LayerRef can name them so fault sites, hooks,
	// and reports share one address space.

	// KindAttnNorm is the RMSNorm gain vector before attention.
	KindAttnNorm
	// KindMLPNorm is the RMSNorm gain vector before the MLP / MoE.
	KindMLPNorm
	// KindFinalNorm is the pre-LM-head RMSNorm gain (Block = -1).
	KindFinalNorm
	// KindEmbed is the token embedding table (Block = -1).
	KindEmbed
	// KindAttnAct addresses the transient post-attention activation row
	// (the concatenated head outputs before the out_proj GEMM) — an
	// activation surface, observable through attention hooks only.
	KindAttnAct

	numLayerKinds
)

// String returns the HuggingFace-style layer name.
func (k LayerKind) String() string {
	switch k {
	case KindQ:
		return "q_proj"
	case KindK:
		return "k_proj"
	case KindV:
		return "v_proj"
	case KindOut:
		return "out_proj"
	case KindGate:
		return "gate_proj"
	case KindUp:
		return "up_proj"
	case KindDown:
		return "down_proj"
	case KindRouter:
		return "router_gate"
	case KindLMHead:
		return "lm_head"
	case KindAttnNorm:
		return "attn_norm"
	case KindMLPNorm:
		return "mlp_norm"
	case KindFinalNorm:
		return "final_norm"
	case KindEmbed:
		return "embed_tokens"
	case KindAttnAct:
		return "attn_act"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// LayerRef addresses one linear layer instance: block index, kind, and
// expert index (-1 unless the layer belongs to an MoE expert).
type LayerRef struct {
	Block  int
	Kind   LayerKind
	Expert int
}

// Sublayer returns the index of the sublayer ref lies in, in forward
// order: 2·Block for a block's attention half (its norm gain, q/k/v/out
// and the post-attention activation), 2·Block+1 for its MLP/MoE half (its
// norm gain, the router and the gate/up/down of the MLP or any expert),
// and -1 for what lies outside the blocks (embedding, final norm, LM
// head).
func (r LayerRef) Sublayer() int {
	if r.Block < 0 {
		return -1
	}
	switch r.Kind {
	case KindAttnNorm, KindQ, KindK, KindV, KindOut, KindAttnAct:
		return 2 * r.Block
	case KindMLPNorm, KindRouter, KindGate, KindUp, KindDown:
		return 2*r.Block + 1
	}
	return -1
}

// String renders e.g. "block10.up_proj" or "block3.expert5.down_proj".
func (r LayerRef) String() string {
	if r.Expert >= 0 {
		return fmt.Sprintf("block%d.expert%d.%s", r.Block, r.Expert, r.Kind)
	}
	return fmt.Sprintf("block%d.%s", r.Block, r.Kind)
}
