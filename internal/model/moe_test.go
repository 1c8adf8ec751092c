package model

import (
	"math"
	"testing"

	"repro/internal/numerics"
	"repro/internal/tensor"
)

func moeSpec() Spec {
	spec := testSpec(LlamaS)
	spec.NumExperts = 4
	spec.TopK = 2
	return spec
}

// TestMoERoutingMatchesRouterLogits verifies that the experts recorded in
// the trace are exactly the top-k of the router layer's output, captured
// independently through a forward hook.
func TestMoERoutingMatchesRouterLogits(t *testing.T) {
	m := MustBuild(moeSpec())
	var routerOut [][]float32
	m.AddHook(func(ref LayerRef, pos int, out []float32) {
		if ref.Kind == KindRouter && ref.Block == 0 {
			routerOut = append(routerOut, append([]float32(nil), out...))
		}
	})
	st := m.NewState()
	st.EnableExpertTrace()
	st.Prefill([]int{1, 5, 6})
	m.ClearHooks()

	if len(routerOut) != 3 {
		t.Fatalf("captured %d router outputs, want 3", len(routerOut))
	}
	for pos, logits := range routerOut {
		want := tensor.TopK(logits, 2)
		got := st.ExpertTrace[0][pos*2 : pos*2+2]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pos %d: trace %v, topk %v", pos, got, want)
			}
		}
	}
}

// TestMoEMixtureBounded: the MoE output is a convex combination of
// expert outputs (weights sum to 1), so with one expert's output forced
// to zero via weight surgery, the block output magnitude cannot exceed
// the max expert magnitude.
func TestMoEMixtureIsConvex(t *testing.T) {
	m := MustBuild(moeSpec())
	// Probe: run a token, capture each expert's down_proj output and the
	// final mixture is not directly observable, but convexity implies the
	// mixture of identical experts equals the single expert output. Make
	// all experts identical and compare against the dense equivalent.
	denseSpec := testSpec(LlamaS)
	dm := MustBuild(denseSpec)
	for b, blk := range m.Blocks {
		src := dm.Blocks[b]
		// Copy attention weights so both models align.
		blk.Wq = src.Wq.CloneWeight()
		blk.Wk = src.Wk.CloneWeight()
		blk.Wv = src.Wv.CloneWeight()
		blk.Wo = src.Wo.CloneWeight()
		blk.AttnNorm = append([]float32(nil), src.AttnNorm...)
		blk.MLPNorm = append([]float32(nil), src.MLPNorm...)
		for e := range blk.Experts {
			blk.Experts[e] = &MLPWeights{
				WGate: src.MLP.WGate.CloneWeight(),
				WUp:   src.MLP.WUp.CloneWeight(),
				WDown: src.MLP.WDown.CloneWeight(),
			}
		}
	}
	m.Embed = dm.Embed.Clone()
	m.FinalNorm = append([]float32(nil), dm.FinalNorm...)
	m.LMHead = dm.LMHead.CloneWeight()

	a := m.NewState().Prefill([]int{1, 5, 6, 7})
	b := dm.NewState().Prefill([]int{1, 5, 6, 7})
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-3 {
			t.Fatalf("identical-experts MoE logit %d = %g, dense = %g", i, a[i], b[i])
		}
	}
}

// TestMoERouterFaultChangesRouting: corrupting the router weights must be
// able to change the expert trace — the Figure 15 mechanism, tested at
// the unit level.
func TestMoERouterFaultChangesRouting(t *testing.T) {
	m := MustBuild(moeSpec())
	prompt := []int{1, 5, 6, 7, 8}
	run := func() [][]int {
		st := m.NewState()
		st.EnableExpertTrace()
		st.Prefill(prompt)
		return st.ExpertTrace
	}
	clean := run()

	changedAny := false
	router := m.Blocks[0].Router.(*Dense)
	msb := numerics.BF16.Bits() - 2
	for col := 0; col < router.Out() && !changedAny; col++ {
		for row := 0; row < router.In() && !changedAny; row += 3 {
			restore := router.FlipBits(row, col, []int{msb})
			faulty := run()
			restore()
			for b := range clean {
				for i := range clean[b] {
					if clean[b][i] != faulty[b][i] {
						changedAny = true
					}
				}
			}
		}
	}
	if !changedAny {
		t.Fatal("no router weight flip changed expert selection")
	}
}
