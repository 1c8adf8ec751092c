package faults_test

import (
	"math"
	"reflect"
	"testing"

	. "repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/outcome"
	"repro/internal/prng"
)

var surfacePrompt = []int{5, 9, 17, 4, 12, 7}

// surfaceBaseline decodes the test model fault-free.
func surfaceBaseline(m *model.Model) []int {
	return gen.Generate(m, surfacePrompt, gen.Defaults(8)).Tokens
}

// decodeWithKV runs a serial decode calling inj.BeforeStep between steps,
// the way the decode loop does.
func decodeWithKV(m *model.Model, inj *Injection, maxNew int) []int {
	st := m.NewState()
	logits := st.Prefill(surfacePrompt)
	stepper := gen.NewStepper(gen.Defaults(maxNew))
	tok, ok := stepper.Next(logits, st.Pos, m.Cfg.MaxSeq)
	for ok {
		if inj != nil {
			inj.BeforeStep(st)
		}
		logits = st.DecodeStep(tok)
		tok, ok = stepper.Next(logits, st.Pos, m.Cfg.MaxSeq)
	}
	return stepper.Result().Tokens
}

func TestParseSurfaceRoundTrip(t *testing.T) {
	for _, s := range Surfaces {
		got, err := ParseSurface(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseSurface(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSurface("flux-capacitor"); err == nil {
		t.Fatal("want error for unknown surface")
	}
}

// TestSurfaceSamplersBounds draws many sites per surface and checks every
// coordinate stays inside its storage.
func TestSurfaceSamplersBounds(t *testing.T) {
	m := NewTestModel(t, 0)
	sp, err := NewSampler(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	const maxGen, promptLen = 10, 6
	for _, surf := range Surfaces {
		src := prng.New(77)
		for i := 0; i < 500; i++ {
			site, err := SampleSurface(src, sp, m, surf, Comp1Bit, maxGen, promptLen)
			if err != nil {
				t.Fatalf("%v: %v", surf, err)
			}
			if site.Surface != surf {
				t.Fatalf("%v: sampled surface %v", surf, site.Surface)
			}
			for _, b := range site.Bits {
				if b < 0 || b >= 32 {
					t.Fatalf("%v: bit %d out of fp32 range", surf, b)
				}
			}
			switch surf {
			case SurfaceKV:
				if site.Layer.Kind != model.KindK && site.Layer.Kind != model.KindV {
					t.Fatalf("kv kind %v", site.Layer.Kind)
				}
				if site.GenIter < 0 || site.GenIter >= maxGen ||
					site.Row < 0 || site.Row >= promptLen+site.GenIter+1 ||
					site.Col < 0 || site.Col >= m.Cfg.DModel ||
					site.Layer.Block < 0 || site.Layer.Block >= m.Cfg.NBlocks {
					t.Fatalf("kv site out of bounds: %+v", site)
				}
			case SurfaceNorm:
				switch site.Layer.Kind {
				case model.KindFinalNorm:
					if site.Layer.Block != -1 {
						t.Fatalf("final norm block %d", site.Layer.Block)
					}
				case model.KindAttnNorm, model.KindMLPNorm:
					if site.Layer.Block < 0 || site.Layer.Block >= m.Cfg.NBlocks {
						t.Fatalf("norm block %d", site.Layer.Block)
					}
				default:
					t.Fatalf("norm kind %v", site.Layer.Kind)
				}
				if site.Col < 0 || site.Col >= m.Cfg.DModel {
					t.Fatalf("norm col %d", site.Col)
				}
			case SurfaceEmbed:
				if site.Row < 0 || site.Row >= m.Cfg.Vocab || site.Col < 0 || site.Col >= m.Cfg.DModel {
					t.Fatalf("embed site out of bounds: %+v", site)
				}
			case SurfaceAttn:
				if site.Layer.Kind != model.KindAttnAct ||
					site.Layer.Block < 0 || site.Layer.Block >= m.Cfg.NBlocks ||
					site.Col < 0 || site.Col >= m.Cfg.DModel ||
					site.GenIter < 0 || site.GenIter >= maxGen {
					t.Fatalf("attn site out of bounds: %+v", site)
				}
			}
		}
	}
}

// TestSurfaceSamplingDeterminism pins that a site is a pure function of
// the seed — the property per-request fault determinism in the serving
// engine rests on.
func TestSurfaceSamplingDeterminism(t *testing.T) {
	m := NewTestModel(t, 0)
	sp, err := NewSampler(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, surf := range Surfaces {
		a, err1 := SampleSurface(prng.New(123).Split(9), sp, m, surf, Comp2Bit, 8, 6)
		b, err2 := SampleSurface(prng.New(123).Split(9), sp, m, surf, Comp2Bit, 8, 6)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: same seed, different sites:\n%+v\n%+v", surf, a, b)
		}
	}
}

// TestSurfaceArmDisarmBitIdentity proves the weight-resident surfaces
// restore the model exactly: after Arm+Disarm, generation is
// bit-identical to never having armed.
func TestSurfaceArmDisarmBitIdentity(t *testing.T) {
	m := NewTestModel(t, 0)
	clean := surfaceBaseline(m)
	sites := []Site{
		{Fault: Comp1Bit, Surface: SurfaceNorm,
			Layer: model.LayerRef{Block: 1, Kind: model.KindAttnNorm, Expert: -1}, Col: 3, Bits: []int{30}},
		{Fault: Comp1Bit, Surface: SurfaceNorm,
			Layer: model.LayerRef{Block: -1, Kind: model.KindFinalNorm, Expert: -1}, Col: 7, Bits: []int{30}},
		{Fault: Comp1Bit, Surface: SurfaceEmbed,
			Layer: model.LayerRef{Block: -1, Kind: model.KindEmbed, Expert: -1}, Row: 9, Col: 2, Bits: []int{30}},
		{Fault: Comp1Bit, Surface: SurfaceAttn,
			Layer: model.LayerRef{Block: 0, Kind: model.KindAttnAct, Expert: -1}, Col: 5, GenIter: 1, Bits: []int{30}},
	}
	for _, site := range sites {
		inj, err := Arm(m, site, len(surfacePrompt))
		if err != nil {
			t.Fatalf("%v: %v", site, err)
		}
		inj.Disarm()
		if got := surfaceBaseline(m); !reflect.DeepEqual(got, clean) {
			t.Fatalf("%v: arm+disarm perturbed generation: %v vs %v", site, got, clean)
		}
	}
	// A KV fault whose BeforeStep never runs leaves the inference
	// untouched — disarmed-by-construction.
	if _, err := New(m, Site{Fault: Comp1Bit, Surface: SurfaceKV,
		Layer: model.LayerRef{Block: 1, Kind: model.KindK, Expert: -1}, Row: 2, Col: 3, GenIter: 1, Bits: []int{30}},
		len(surfacePrompt)); err != nil {
		t.Fatal(err)
	}
	if got := surfaceBaseline(m); !reflect.DeepEqual(got, clean) {
		t.Fatalf("a kv Injection without BeforeStep perturbed generation")
	}
	if got := decodeWithKV(m, nil, 8); !reflect.DeepEqual(got, clean) {
		t.Fatalf("manual decode loop disagrees with gen.Generate: %v vs %v", got, clean)
	}
}

// TestSurfaceArmValidation pins the arming dispatch rules: which sites
// New refuses, that each transient site yields exactly its own observer
// (so a weight-resident or kv site can never ride a row as a hook), and
// that Arm — which has no State to strike — refuses kv.
func TestSurfaceArmValidation(t *testing.T) {
	m := NewTestModel(t, 0)
	kv := Site{Fault: Comp1Bit, Surface: SurfaceKV,
		Layer: model.LayerRef{Block: 0, Kind: model.KindK, Expert: -1}, Row: 1, Col: 1, Bits: []int{3}}
	norm := Site{Fault: Comp1Bit, Surface: SurfaceNorm,
		Layer: model.LayerRef{Block: 0, Kind: model.KindAttnNorm, Expert: -1}, Col: 1, Bits: []int{3}}
	embed := Site{Fault: Comp1Bit, Surface: SurfaceEmbed,
		Layer: model.LayerRef{Block: -1, Kind: model.KindEmbed, Expert: -1}, Row: 1, Col: 1, Bits: []int{3}}
	attn := Site{Fault: Comp1Bit, Surface: SurfaceAttn,
		Layer: model.LayerRef{Block: 0, Kind: model.KindAttnAct, Expert: -1}, Col: 1, Bits: []int{3}}
	q := model.LayerRef{Block: 0, Kind: model.KindQ, Expert: -1}
	comp := Site{Fault: Comp1Bit, Layer: q, Col: 1, Bits: []int{3}}
	mem := Site{Fault: Mem2Bit, Layer: q, Row: 1, Col: 1, Bits: []int{3, 4}}

	if _, err := Arm(m, kv, 4); err == nil {
		t.Fatal("Arm must reject kv sites")
	}
	bad := func(site Site, edit func(*Site)) Site { edit(&site); return site }
	for name, site := range map[string]Site{
		"kv on a non-cache kind":   bad(kv, func(s *Site) { s.Layer.Kind = model.KindQ }),
		"attn off attn_act":        bad(attn, func(s *Site) { s.Layer.Kind = model.KindOut }),
		"norm gain out of range":   bad(norm, func(s *Site) { s.Col = m.Cfg.DModel }),
		"norm on a linear kind":    bad(norm, func(s *Site) { s.Layer.Kind = model.KindQ }),
		"embed row out of range":   bad(embed, func(s *Site) { s.Row = m.Cfg.Vocab }),
		"embed col out of range":   bad(embed, func(s *Site) { s.Col = m.Cfg.DModel }),
		"weight row out of range":  bad(mem, func(s *Site) { s.Row = 1 << 20 }),
		"weight col out of range":  bad(mem, func(s *Site) { s.Col = 1 << 20 }),
		"weight layer nonexistent": bad(mem, func(s *Site) { s.Layer.Block = 99 }),
	} {
		if inj, err := New(m, site, 4); err == nil {
			inj.Disarm()
			t.Errorf("New must reject %s", name)
		}
	}

	for _, c := range []struct {
		site                       Site
		hook, attnHook, beforeStep bool
	}{
		{site: comp, hook: true},
		{site: attn, attnHook: true},
		{site: kv, beforeStep: true},
		{site: mem}, {site: norm}, {site: embed},
	} {
		inj, err := New(m, c.site, 4)
		if err != nil {
			t.Fatalf("%v: %v", c.site, err)
		}
		if (inj.Hook != nil) != c.hook || (inj.AttnHook != nil) != c.attnHook || (inj.BeforeStep != nil) != c.beforeStep {
			t.Errorf("%v: observers hook=%v attn=%v beforeStep=%v, want %v %v %v", c.site,
				inj.Hook != nil, inj.AttnHook != nil, inj.BeforeStep != nil, c.hook, c.attnHook, c.beforeStep)
		}
		if transient := c.hook || c.attnHook || c.beforeStep; inj.Fired == transient {
			t.Errorf("%v: Fired=%v at New (weight-resident faults are live at once, transient ones not yet)", c.site, inj.Fired)
		}
		inj.Disarm()
	}
}

// TestKVStrikeFiresOnce pins the KV strike semantics: the flip lands
// exactly at the strike iteration, once.
func TestKVStrikeFiresOnce(t *testing.T) {
	m := NewTestModel(t, 0)
	site := Site{Fault: Comp1Bit, Surface: SurfaceKV,
		Layer: model.LayerRef{Block: 1, Kind: model.KindV, Expert: -1}, Row: 2, Col: 3, GenIter: 2, Bits: []int{30}}
	inj, err := New(m, site, len(surfacePrompt))
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewState()
	st.Prefill(surfacePrompt)
	inj.BeforeStep(st) // Pos == promptLen < target: must not fire
	if inj.Fired {
		t.Fatal("fired before strike iteration")
	}
	st.DecodeStep(4)
	st.DecodeStep(4)
	struck := func() float32 {
		v, ok := st.KVAt(site.Layer, site.Row, site.Col)
		if !ok {
			t.Fatalf("%v is outside the state's cache", site)
		}
		return v
	}
	before := struck()
	inj.BeforeStep(st)
	if !inj.Fired {
		t.Fatal("did not fire at strike iteration")
	}
	if struck() == before {
		t.Fatal("strike did not change the cache element")
	}
	after := struck()
	inj.BeforeStep(st)
	if struck() != after {
		t.Fatal("second BeforeStep must be a no-op")
	}
}

// loopDecode runs one request alone on a width-1 decode loop under arm —
// how campaigns and the serving engine carry an Injection's observer.
func loopDecode(m *model.Model, arm gen.Arm, maxNew int) []int {
	st := m.NewState()
	logits := st.Prefill(surfacePrompt)
	loop := gen.NewLoop[int](m, 1)
	s := loop.Admit(st, logits, gen.Defaults(maxNew), arm, 0)
	for !s.Done() {
		loop.Step()
	}
	return s.Result().Tokens
}

// TestNewObserverMatchesWholeModel pins that the one arming path strikes
// the same way wherever its observer is carried: a row of the decode
// loop carrying New's observer generates the tokens (and reports the
// Fired) of the whole-model Arm + Generate, a kv row those of the
// hand-written BeforeStep loop; and that a weight-resident New writes no
// parameter of the model its row decodes over.
func TestNewObserverMatchesWholeModel(t *testing.T) {
	m := NewTestModel(t, 0)
	baseline := surfaceBaseline(m)
	promptLen := len(surfacePrompt)
	out := model.LayerRef{Block: 1, Kind: model.KindOut, Expert: -1}

	for _, site := range []Site{
		{Fault: Comp1Bit, Layer: out, Col: 5, GenIter: 1, Bits: []int{14}},
		{Fault: Comp2Bit, Layer: out, Col: 5, GenIter: 30, Bits: []int{13, 14}}, // never reached
		{Fault: Comp1Bit, Surface: SurfaceAttn,
			Layer: model.LayerRef{Block: 0, Kind: model.KindAttnAct, Expert: -1}, Col: 5, GenIter: 0, Bits: []int{30}},
		{Fault: Comp1Bit, Surface: SurfaceKV,
			Layer: model.LayerRef{Block: 1, Kind: model.KindK, Expert: -1}, Row: 2, Col: 3, GenIter: 1, Bits: []int{30}},
	} {
		var want []int
		var wantFired bool
		if site.Surface == SurfaceKV {
			ref, err := New(m, site, promptLen)
			if err != nil {
				t.Fatal(err)
			}
			want, wantFired = decodeWithKV(m, ref, 8), ref.Fired
		} else {
			ref, err := Arm(m, site, promptLen)
			if err != nil {
				t.Fatal(err)
			}
			want, wantFired = gen.Generate(m, surfacePrompt, gen.Defaults(8)).Tokens, ref.Fired
			ref.Disarm()
		}

		inj, err := New(m, site, promptLen)
		if err != nil {
			t.Fatal(err)
		}
		arm := gen.Arm{BeforeStep: inj.BeforeStep}
		if inj.Hook != nil {
			arm.Hooks = []model.Hook{inj.Hook}
		}
		if inj.AttnHook != nil {
			arm.AttnHooks = []model.Hook{inj.AttnHook}
		}
		got := loopDecode(m, arm, 8)
		if !reflect.DeepEqual(got, want) || inj.Fired != wantFired {
			t.Errorf("%v: row tokens %v fired %v, whole-model %v fired %v", site, got, inj.Fired, want, wantFired)
		}
		if wantFired == reflect.DeepEqual(want, baseline) {
			t.Errorf("%v: fired %v but tokens %v vs baseline %v — the case pins nothing", site, wantFired, want, baseline)
		}
		// New installed nothing on m and Disarm has nothing to take off it.
		inj.Disarm()
		if clean := surfaceBaseline(m); !reflect.DeepEqual(clean, baseline) {
			t.Fatalf("%v: model perturbed after the row retired: %v vs %v", site, clean, baseline)
		}
	}

	// A weight-resident New reads m and writes nothing: its strike lives
	// on the row that carries it, and the model is untouched before,
	// during and after that row's decode.
	normRef := model.LayerRef{Block: 1, Kind: model.KindAttnNorm, Expert: -1}
	stored := paramHash(m)
	for _, site := range []Site{
		{Fault: Mem2Bit, Layer: out, Row: 3, Col: 5, Bits: []int{13, 14}},
		{Fault: Comp1Bit, Surface: SurfaceNorm, Layer: normRef, Col: 3, Bits: []int{30}},
		{Fault: Comp1Bit, Surface: SurfaceEmbed,
			Layer: model.LayerRef{Block: -1, Kind: model.KindEmbed, Expert: -1}, Row: baseline[0], Col: 2, Bits: []int{30}},
	} {
		inj, err := New(m, site, promptLen)
		if err != nil {
			t.Fatal(err)
		}
		if !inj.Fired || inj.Strike == nil {
			t.Fatalf("%v: fired %v strike %v, want a live strike", site, inj.Fired, inj.Strike)
		}
		if got := loopDecode(m, gen.Arm{Observers: model.Observers{Strike: inj.Strike}}, 8); reflect.DeepEqual(got, baseline) {
			t.Errorf("%v: the struck row decoded the baseline %v", site, got)
		}
		if paramHash(m) != stored {
			t.Fatalf("%v: New or the struck row wrote the model's parameters", site)
		}
	}
	if got := surfaceBaseline(m); !reflect.DeepEqual(got, baseline) {
		t.Fatalf("generation changed after the struck rows: %v vs %v", got, baseline)
	}
}

// TestSurfaceOutcomeGoldens pins the outcome classification for one
// exponent-bit and one low-mantissa-bit flip per surface, against the
// deterministic test model. High-exponent strikes blow up the struck
// value and corrupt generation; mantissa-LSB strikes sit below the
// numeric noise floor and stay Masked.
func TestSurfaceOutcomeGoldens(t *testing.T) {
	m := NewTestModel(t, 0)
	baseline := surfaceBaseline(m)

	kvSite := func(bits ...int) Site {
		return Site{Fault: Comp1Bit, Surface: SurfaceKV,
			Layer: model.LayerRef{Block: 1, Kind: model.KindK, Expert: -1}, Row: 2, Col: 3, GenIter: 1, Bits: bits}
	}
	normSite := func(bits ...int) Site {
		return Site{Fault: Comp1Bit, Surface: SurfaceNorm,
			Layer: model.LayerRef{Block: 1, Kind: model.KindAttnNorm, Expert: -1}, Col: 3, Bits: bits}
	}
	embedSite := func(bits ...int) Site {
		// Row 5 is the first prompt token, so the corrupted row is embedded.
		return Site{Fault: Comp1Bit, Surface: SurfaceEmbed,
			Layer: model.LayerRef{Block: -1, Kind: model.KindEmbed, Expert: -1}, Row: 5, Col: 2, Bits: bits}
	}
	attnSite := func(bits ...int) Site {
		return Site{Fault: Comp1Bit, Surface: SurfaceAttn,
			Layer: model.LayerRef{Block: 0, Kind: model.KindAttnAct, Expert: -1}, Col: 5, GenIter: 0, Bits: bits}
	}

	cases := []struct {
		name string
		site Site
		want string
	}{
		{"kv/exp30", kvSite(30), "SDC-subtle"},
		{"kv/mant0", kvSite(0), "Masked"},
		{"norm/exp30", normSite(30), "SDC-subtle"},
		{"norm/mant0", normSite(0), "Masked"},
		{"embed/exp30", embedSite(30), "SDC-subtle"},
		{"embed/mant0", embedSite(0), "Masked"},
		{"attn/exp30", attnSite(30), "SDC-subtle"},
		{"attn/mant0", attnSite(0), "Masked"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tokens []int
			var fired bool
			if c.site.Surface == SurfaceKV {
				inj, err := New(m, c.site, len(surfacePrompt))
				if err != nil {
					t.Fatal(err)
				}
				tokens = decodeWithKV(m, inj, 8)
				fired = inj.Fired
			} else {
				inj, err := Arm(m, c.site, len(surfacePrompt))
				if err != nil {
					t.Fatal(err)
				}
				tokens = gen.Generate(m, surfacePrompt, gen.Defaults(8)).Tokens
				fired = inj.Fired
				inj.Disarm()
			}
			if !fired {
				t.Fatalf("fault did not fire")
			}
			matches := reflect.DeepEqual(tokens, baseline)
			an := outcome.Classify(tokens, baseline, matches, outcome.Thresholds{})
			if got := an.Class.String(); got != c.want {
				t.Errorf("outcome = %s, want %s (tokens %v vs baseline %v)", got, c.want, tokens, baseline)
			}
			// Each trial must leave the model clean for the next.
			if got := surfaceBaseline(m); !reflect.DeepEqual(got, baseline) {
				t.Fatalf("model not restored after trial: %v vs %v", got, baseline)
			}
		})
	}
}

// TestReach pins the first step each surface can change: GenIter for the
// transients, 0 for a norm gain and a linear weight, the first step fed
// the struck embedding row — len(tokens) when no step is.
func TestReach(t *testing.T) {
	tokens := []int{7, 3, 9, 3}
	out := model.LayerRef{Block: 1, Kind: model.KindOut, Expert: -1}
	for _, tc := range []struct {
		site Site
		want int
	}{
		{Site{Fault: Comp1Bit, Layer: out, GenIter: 2}, 2},
		{Site{Fault: Mem2Bit, Layer: out, GenIter: 2}, 0},
		{Site{Fault: Comp1Bit, Surface: SurfaceAttn, GenIter: 3}, 3},
		{Site{Fault: Comp2Bit, Surface: SurfaceKV, Row: 1, GenIter: 1}, 1},
		{Site{Fault: Comp1Bit, Surface: SurfaceNorm, GenIter: 3}, 0},
		{Site{Fault: Comp1Bit, Surface: SurfaceEmbed, Row: 3}, 1},
		{Site{Fault: Comp1Bit, Surface: SurfaceEmbed, Row: 7}, 0},
		{Site{Fault: Comp1Bit, Surface: SurfaceEmbed, Row: 4}, len(tokens)},
	} {
		if got := Reach(tc.site, tokens); got != tc.want {
			t.Errorf("Reach(%v) = %d, want %d", tc.site, got, tc.want)
		}
	}
}

// TestReachForkMatchesDecode runs sampled faults of every surface, and an
// embedding strike on a row the clean decode feeds, from the prompt's end
// and forked from the clean decode at their Reach: tokens, steps and Fired
// agree, and some forks skip steps.
func TestReachForkMatchesDecode(t *testing.T) {
	m := NewTestModel(t, 0)
	const maxNew = 8
	promptLen := len(surfacePrompt)
	st := m.NewState()
	clean, points := gen.ResumableGreedy(m, st, st.Prefill(surfacePrompt), gen.Defaults(maxNew))
	from := st.Snapshot()
	sp, err := NewSampler(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	sites := []Site{{Fault: Comp1Bit, Surface: SurfaceEmbed, Layer: model.LayerRef{Block: -1, Kind: model.KindEmbed, Expert: -1},
		Row: clean.Tokens[3], Col: 2, Bits: []int{30}}}
	for seed := uint64(0); seed < 60; seed++ {
		src := prng.New(seed)
		fm := []Model{Comp1Bit, Mem2Bit}[seed%2]
		site, err := SampleSurface(src, sp, m, Surfaces[seed%uint64(len(Surfaces))], fm, maxNew, promptLen)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, site)
	}
	arm := func(site Site) (*Injection, gen.Arm) {
		inj, err := New(m, site, promptLen)
		if err != nil {
			t.Fatal(err)
		}
		a := gen.Arm{BeforeStep: inj.BeforeStep}
		a.Strike = inj.Strike
		if inj.Hook != nil {
			a.Hooks = []model.Hook{inj.Hook}
		}
		if inj.AttnHook != nil {
			a.AttnHooks = []model.Hook{inj.AttnHook}
		}
		return inj, a
	}
	loop := gen.NewLoop[int](m, 1)
	run := func(s *gen.Seq[int]) gen.Result {
		for !s.Done() {
			loop.Step()
		}
		res := s.Result()
		loop.Release(s)
		return res
	}
	skipped := 0
	for _, site := range sites {
		inj, a := arm(site)
		st := m.NewState()
		want := run(loop.Admit(st, st.Prefill(surfacePrompt), gen.Defaults(maxNew), a, 0))
		g := min(Reach(site, clean.Tokens), len(points)-1)
		fork, a := arm(site)
		got := run(loop.AdmitFork(from, points[g], 0, a, 0))
		// LogProb by its bits: a NaN compares unequal to itself.
		same := reflect.DeepEqual(got.Tokens, want.Tokens) && got.Steps == want.Steps && got.Stopped == want.Stopped &&
			math.Float64bits(got.LogProb) == math.Float64bits(want.LogProb)
		if !same || fork.Fired != inj.Fired {
			t.Fatalf("%v forked at step %d: %+v fired %v, from the prompt's end %+v fired %v", site, g, got, fork.Fired, want, inj.Fired)
		}
		skipped += g
	}
	if skipped == 0 {
		t.Fatal("no fork skipped a step")
	}
}
