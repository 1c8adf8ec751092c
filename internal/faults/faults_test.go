package faults

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/prng"
)

func testModel(t *testing.T, experts int) *model.Model {
	t.Helper()
	cfg := model.Config{
		Name: "ft", Vocab: 32, DModel: 16, NHeads: 2, NBlocks: 3,
		FFHidden: 24, MaxSeq: 24, Eps: 1e-5, DType: numerics.BF16,
		RopeTheta: 10000,
	}
	if experts > 0 {
		cfg.NumExperts = experts
		cfg.TopK = 2
	}
	return model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 5})
}

func TestFaultModelProperties(t *testing.T) {
	if Comp1Bit.NumBits() != 1 || Comp2Bit.NumBits() != 2 || Mem2Bit.NumBits() != 2 {
		t.Fatal("bit counts")
	}
	if Comp1Bit.IsMemory() || Comp2Bit.IsMemory() || !Mem2Bit.IsMemory() {
		t.Fatal("memory classification")
	}
}

func TestSamplerSitesValid(t *testing.T) {
	m := testModel(t, 0)
	sp, err := NewSampler(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, fmRaw uint8) bool {
		fm := Models[int(fmRaw)%len(Models)]
		site := sp.Sample(prng.New(seed), fm, 10)
		w, err := m.Layer(site.Layer)
		if err != nil {
			return false
		}
		if fm.IsMemory() {
			if site.Row < 0 || site.Row >= w.In() || site.Col < 0 || site.Col >= w.Out() {
				return false
			}
		} else {
			if site.Col < 0 || site.Col >= w.Out() || site.GenIter < 0 || site.GenIter >= 10 {
				return false
			}
		}
		if len(site.Bits) != fm.NumBits() {
			return false
		}
		for _, b := range site.Bits {
			if b < 0 || b >= w.StorageBits() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSamplerBlockUniform(t *testing.T) {
	m := testModel(t, 0)
	sp, err := NewSampler(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(3)
	counts := map[int]int{}
	const trials = 6000
	for i := 0; i < trials; i++ {
		counts[sp.Sample(src, Mem2Bit, 1).Layer.Block]++
	}
	want := trials / m.Cfg.NBlocks
	for b, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("block %d sampled %d times, want ~%d", b, c, want)
		}
	}
}

func TestSamplerLayerTypeUniform(t *testing.T) {
	// §3.2 sampling: with 8 experts, the probability of hitting an expert
	// MLP layer type must equal the dense model's MLP probability — not
	// be 8x larger.
	moe := testModel(t, 8)
	sp, err := NewSampler(moe, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(4)
	const trials = 8000
	mlpHits := 0
	for i := 0; i < trials; i++ {
		site := sp.Sample(src, Mem2Bit, 1)
		switch site.Layer.Kind {
		case model.KindGate, model.KindUp, model.KindDown:
			mlpHits++
		}
	}
	// 8 layer types per MoE block (q,k,v,o,router,gate,up,down): MLP
	// kinds are 3 of 8.
	frac := float64(mlpHits) / trials
	if frac < 0.30 || frac > 0.45 {
		t.Errorf("MLP-type fraction %f, want ~3/8 despite 8 experts", frac)
	}
}

func TestGateOnlyFilter(t *testing.T) {
	moe := testModel(t, 4)
	sp, err := NewSampler(moe, GateOnly)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(9)
	for i := 0; i < 100; i++ {
		site := sp.Sample(src, Mem2Bit, 1)
		if site.Layer.Kind != model.KindRouter {
			t.Fatalf("gate-only sampler yielded %v", site.Layer)
		}
	}
	// A dense model has no gate layers: the sampler must refuse.
	dense := testModel(t, 0)
	if _, err := NewSampler(dense, GateOnly); err == nil {
		t.Fatal("expected error for gate-only on dense model")
	}
}

func TestMemoryInjectionFlipRestore(t *testing.T) {
	m := testModel(t, 0)
	sp, _ := NewSampler(m, nil)
	src := prng.New(11)
	for i := 0; i < 50; i++ {
		site := sp.Sample(src, Mem2Bit, 1)
		w, _ := m.Layer(site.Layer)
		before := w.Get(site.Row, site.Col)
		inj, err := New(m, site, 0)
		if err != nil {
			t.Fatal(err)
		}
		during := inj.Strike.W.Get(site.Row, site.Col)
		after := w.Get(site.Row, site.Col)
		if after != before {
			t.Fatalf("weight not restored: %g -> %g -> %g", before, during, after)
		}
		if !inj.Fired {
			t.Fatal("memory faults always fire")
		}
	}
}

func TestCompInjectionOneShot(t *testing.T) {
	m := testModel(t, 0)
	site := Site{
		Fault: Comp2Bit,
		Layer: model.LayerRef{Block: 1, Kind: model.KindUp, Expert: -1},
		Col:   3, Bits: []int{14, 2}, GenIter: 1,
	}
	inj, err := New(m, site, 2) // fires at absolute position 3
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewState()
	st.Observers = inj.Observers()
	for pos := 0; pos < 6; pos++ {
		st.DecodeStep(5)
		if pos < 3 && inj.Fired {
			t.Fatalf("fired too early at pos %d", pos)
		}
	}
	if !inj.Fired {
		t.Fatal("computational fault never fired")
	}

	// The hook is the armed state's: a fresh decode is fault-free.
	clean := m.NewState().Prefill([]int{1, 5, 6, 7})
	m2 := testModel(t, 0)
	ref := m2.NewState().Prefill([]int{1, 5, 6, 7})
	for i := range clean {
		if clean[i] != ref[i] {
			t.Fatal("model corrupted by a fault armed on another state")
		}
	}
}

func TestCompInjectionChangesActivation(t *testing.T) {
	m := testModel(t, 0)
	prompt := []int{1, 5, 6, 7}
	clean := append([]float32(nil), m.NewState().Prefill(prompt)...)

	site := Site{
		Fault: Comp1Bit,
		Layer: model.LayerRef{Block: 0, Kind: model.KindDown, Expert: -1},
		Col:   1, Bits: []int{14}, GenIter: 0,
	}
	inj, err := New(m, site, 0) // strike the first prompt token
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewState()
	st.Observers = inj.Observers()
	faulty := st.Prefill(prompt)
	diff := false
	for i := range clean {
		if clean[i] != faulty[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("MSB computational fault should change logits")
	}
}

func TestFaultValue(t *testing.T) {
	m := testModel(t, 0)
	site := Site{
		Fault: Mem2Bit,
		Layer: model.LayerRef{Block: 0, Kind: model.KindQ, Expert: -1},
		Row:   1, Col: 2, Bits: []int{14, 0},
	}
	before, after, err := FaultValue(m, site)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("flip should change the value")
	}
	w, _ := m.Layer(site.Layer)
	if w.Get(1, 2) != before {
		t.Fatal("FaultValue must restore the weight")
	}
	if _, _, err := FaultValue(m, Site{Fault: Comp1Bit}); err == nil {
		t.Fatal("FaultValue should reject computational faults")
	}
}

func TestHighestBit(t *testing.T) {
	s := Site{Bits: []int{3, 14, 7}}
	if s.HighestBit() != 14 {
		t.Fatal("highest bit")
	}
	if (Site{}).HighestBit() != -1 {
		t.Fatal("empty bits should report -1")
	}
}

func TestDistinctBits(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		bits := distinctBits(src, 2, 16)
		return len(bits) == 2 && bits[0] != bits[1] &&
			bits[0] >= 0 && bits[1] < 16 && bits[0] < bits[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mapSortBits is distinctBits as it was before its shared slices: a set
// of drawn positions, sorted.
func mapSortBits(src *prng.Source, k, n int) []int {
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

// TestDistinctBitsMatchesMapSort pins distinctBits to the map+sort draw
// over many seeds and every (k, n) shape a site samples, and around the
// shared slices' bounds: the same positions, and the same draws from the
// source — the next value it yields agrees too.
func TestDistinctBitsMatchesMapSort(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16, 31, 32, 33, 64} {
		for k := 0; k <= 3; k++ {
			for seed := uint64(0); seed < 2000; seed++ {
				got, want := prng.New(seed), prng.New(seed)
				g, w := distinctBits(got, k, n), mapSortBits(want, k, n)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("k %d n %d seed %d: %v, map+sort %v", k, n, seed, g, w)
				}
				if got.Uint64() != want.Uint64() {
					t.Fatalf("k %d n %d seed %d: source advanced differently", k, n, seed)
				}
			}
		}
	}
}

// TestDistinctBitsSharedDoesNotAllocate: one or two bits of a format of
// at most 32 come from the shared slices.
func TestDistinctBitsSharedDoesNotAllocate(t *testing.T) {
	src := prng.New(5)
	for _, k := range []int{1, 2} {
		for _, n := range []int{8, 16, 32} {
			if a := testing.AllocsPerRun(200, func() { distinctBits(src, k, n) }); a != 0 {
				t.Fatalf("k %d n %d: %v allocations per draw", k, n, a)
			}
		}
	}
}

func TestArmRejectsOutOfRange(t *testing.T) {
	m := testModel(t, 0)
	site := Site{
		Fault: Mem2Bit,
		Layer: model.LayerRef{Block: 0, Kind: model.KindQ, Expert: -1},
		Row:   10000, Col: 0, Bits: []int{0, 1},
	}
	if _, err := New(m, site, 0); err == nil {
		t.Fatal("expected range error")
	}
}
