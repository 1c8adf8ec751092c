package model

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/numerics"
)

func testSpec(fam Family) Spec {
	cfg := Config{
		Name: "t", Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 2,
		FFHidden: 24, MaxSeq: 24, Eps: 1e-5, DType: numerics.BF16,
		RopeTheta: 10000,
	}
	return Spec{Config: cfg, Family: fam, Seed: 9}
}

func TestBuildDeterministic(t *testing.T) {
	a := MustBuild(testSpec(QwenS))
	b := MustBuild(testSpec(QwenS))
	for i, v := range a.Embed.Data {
		if b.Embed.Data[i] != v {
			t.Fatal("same spec produced different embeddings")
		}
	}
	wa := a.Blocks[1].Wq.(*Dense)
	wb := b.Blocks[1].Wq.(*Dense)
	for i, v := range wa.T.Data {
		if wb.T.Data[i] != v {
			t.Fatal("same spec produced different weights")
		}
	}
}

func TestFamiliesDiffer(t *testing.T) {
	a := MustBuild(testSpec(QwenS))
	b := MustBuild(testSpec(FalconS))
	same := 0
	wa := a.Blocks[0].Wq.(*Dense).T
	wb := b.Blocks[0].Wq.(*Dense).T
	for i := range wa.Data {
		if wa.Data[i] == wb.Data[i] {
			same++
		}
	}
	if same > len(wa.Data)/10 {
		t.Fatal("families should have different weights")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Vocab: 2, DModel: 16, NHeads: 2, NBlocks: 1, FFHidden: 8, MaxSeq: 8},
		{Vocab: 32, DModel: 15, NHeads: 2, NBlocks: 1, FFHidden: 8, MaxSeq: 8},
		{Vocab: 32, DModel: 6, NHeads: 2, NBlocks: 1, FFHidden: 8, MaxSeq: 8}, // head dim 3 is odd
		{Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 0, FFHidden: 8, MaxSeq: 8},
		{Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 1, FFHidden: 0, MaxSeq: 8},
		{Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 1, FFHidden: 8, MaxSeq: 0},
		{Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 1, FFHidden: 8, MaxSeq: 8, NumExperts: 4, TopK: 5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestDecodeDeterministic(t *testing.T) {
	m := MustBuild(testSpec(LlamaS))
	run := func() []float32 {
		st := m.NewState()
		logits := st.Prefill([]int{1, 5, 6, 7})
		return append([]float32(nil), logits...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("decoding is not deterministic")
		}
	}
}

func TestForkContinuesIdentically(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	st := m.NewState()
	st.Prefill([]int{1, 5, 6})
	fork := st.Fork()
	a := append([]float32(nil), st.DecodeStep(7)...)
	b := append([]float32(nil), fork.DecodeStep(7)...)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forked state diverges from original")
		}
	}
}

func TestCloneIsolatesWeights(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	c := m.Clone()
	w := c.Blocks[0].Wq.(*Dense)
	restore := w.FlipBits(0, 0, []int{14})
	orig := m.Blocks[0].Wq.(*Dense)
	if orig.T.At(0, 0) == w.T.At(0, 0) {
		t.Fatal("clone shares weight storage")
	}
	restore()
}

func TestHooksFireAndCanModify(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	fired := map[LayerKind]int{}
	st := m.NewState()
	st.Hooks = []Hook{func(ref LayerRef, pos int, out []float32) {
		fired[ref.Kind]++
	}}
	st.Prefill([]int{1, 5})
	for _, k := range []LayerKind{KindQ, KindK, KindV, KindOut, KindGate, KindUp, KindDown, KindLMHead} {
		if fired[k] != 2*boolToInt(k != KindLMHead)+2*boolToInt(k == KindLMHead)*1 && fired[k] == 0 {
			t.Errorf("hook never fired for %v", k)
		}
	}
	// Per token: each block fires each kind once -> 2 tokens x 2 blocks = 4.
	if fired[KindQ] != 4 {
		t.Errorf("KindQ fired %d times, want 4", fired[KindQ])
	}
	if fired[KindLMHead] != 2 {
		t.Errorf("LMHead fired %d times, want 2", fired[KindLMHead])
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestHookModificationPropagates(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	clean := m.NewState().Prefill([]int{1, 5, 6})
	cleanCopy := append([]float32(nil), clean...)

	st := m.NewState()
	st.Hooks = []Hook{func(ref LayerRef, pos int, out []float32) {
		if ref.Kind == KindUp && ref.Block == 0 && pos == 1 {
			out[0] = 1e30
		}
	}}
	dirty := st.Prefill([]int{1, 5, 6})
	diff := false
	for i := range dirty {
		if dirty[i] != cleanCopy[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("hook modification did not propagate to logits")
	}
}

func TestLinearLayersEnumeration(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	layers := m.LinearLayers()
	// 2 blocks x (4 attention + 3 MLP) = 14.
	if len(layers) != 14 {
		t.Fatalf("got %d layers, want 14", len(layers))
	}
	for _, li := range layers {
		w, err := m.Layer(li.Ref)
		if err != nil {
			t.Fatalf("Layer(%v): %v", li.Ref, err)
		}
		if w != li.Weight {
			t.Fatalf("Layer(%v) returned different weight", li.Ref)
		}
	}
}

func TestMoEModel(t *testing.T) {
	spec := testSpec(LlamaS)
	spec.NumExperts = 4
	spec.TopK = 2
	m := MustBuild(spec)
	layers := m.LinearLayers()
	// 2 blocks x (4 attn + 1 router + 4 experts x 3) = 2 x 17 = 34.
	if len(layers) != 34 {
		t.Fatalf("MoE layers = %d, want 34", len(layers))
	}
	st := m.NewState()
	st.EnableExpertTrace()
	st.Prefill([]int{1, 5, 6})
	for b, tr := range st.ExpertTrace {
		if len(tr) != 3*spec.TopK {
			t.Fatalf("block %d expert trace has %d entries, want %d", b, len(tr), 3*spec.TopK)
		}
		for _, e := range tr {
			if e < 0 || e >= spec.NumExperts {
				t.Fatalf("invalid expert index %d", e)
			}
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	m := MustBuild(testSpec(FalconS))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := m.NewState().Prefill([]int{1, 6, 7, 8})
	b := l.NewState().Prefill([]int{1, 6, 7, 8})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded model computes different logits")
		}
	}
}

func TestSaveLoadMoE(t *testing.T) {
	spec := testSpec(LlamaS)
	spec.NumExperts = 4
	spec.TopK = 2
	m := MustBuild(spec)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := m.NewState().Prefill([]int{1, 9})
	b := l.NewState().Prefill([]int{1, 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded MoE model differs")
		}
	}
}

func TestWithDTypeChangesBitBudget(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	fp16, err := WithDType(m, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	if fp16.Cfg.DType != numerics.FP16 {
		t.Fatal("dtype not set")
	}
	// A flipped exponent MSB in FP16 weights must stay <= 65504.
	w := fp16.Blocks[0].Wq.(*Dense)
	restore := w.FlipBits(0, 0, []int{13})
	v := math.Abs(w.Get(0, 0))
	restore()
	if v > 65504 {
		t.Fatalf("FP16 weight after flip = %g, exceeds max finite", v)
	}
	// Original model is unchanged.
	if m.Cfg.DType != numerics.BF16 {
		t.Fatal("WithDType mutated the source model")
	}
}

func TestDenseFlipRestore(t *testing.T) {
	f := func(seed uint64, rRaw, cRaw, bitRaw uint8) bool {
		m := MustBuild(testSpec(QwenS))
		w := m.Blocks[0].Wo.(*Dense)
		r := int(rRaw) % w.In()
		c := int(cRaw) % w.Out()
		bit := int(bitRaw) % w.DT.Bits()
		before := w.T.At(r, c)
		restore := w.FlipBits(r, c, []int{bit})
		restore()
		return w.T.At(r, c) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestContextOverflowPanics(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	st := m.NewState()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on context overflow")
		}
	}()
	for i := 0; i < m.Cfg.MaxSeq+1; i++ {
		st.DecodeStep(5)
	}
}

func TestScaledConfig(t *testing.T) {
	base := StandardConfig("x", 100, numerics.BF16)
	small := ScaledConfig(base, 0.5, 2)
	if small.DModel%small.NHeads != 0 {
		t.Fatal("scaled d_model not divisible by heads")
	}
	if small.NBlocks != 2 {
		t.Fatal("blocks not applied")
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	big := ScaledConfig(base, 2, 6)
	if big.NumParams() <= small.NumParams() {
		t.Fatal("scaling up should increase params")
	}
}

func TestNumParamsMatchesStorage(t *testing.T) {
	m := MustBuild(testSpec(QwenS))
	count := len(m.Embed.Data) + len(m.FinalNorm)
	count += m.LMHead.In() * m.LMHead.Out()
	for _, blk := range m.Blocks {
		count += len(blk.AttnNorm) + len(blk.MLPNorm)
		for _, w := range []Weight{blk.Wq, blk.Wk, blk.Wv, blk.Wo, blk.MLP.WGate, blk.MLP.WUp, blk.MLP.WDown} {
			count += w.In() * w.Out()
		}
	}
	if got := m.Cfg.NumParams(); got != count {
		t.Fatalf("NumParams = %d, actual storage %d", got, count)
	}
}
