package abft

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/token"
)

func testModel(t *testing.T, moe bool) *model.Model {
	t.Helper()
	vocab := tasks.GeneralVocab()
	cfg := model.StandardConfig("abft-test", vocab.Size(), numerics.BF16)
	if moe {
		cfg = model.MoEConfig(cfg)
	}
	return model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 8})
}

// generate runs a short fault-free generation with the checker armed and
// returns the number of checks performed.
func generate(t *testing.T, m *model.Model, ch *Checker) int {
	t.Helper()
	suite := tasks.NewSelfRefSuite("abft-noise", 4, 3, 40, 16, nil)
	m.SetChecker(ch)
	defer m.SetChecker(nil)
	for _, inst := range suite.Instances {
		st := m.NewState()
		logits := st.Prefill(inst.Prompt)
		gen.GenerateFrom(m, st, append([]float32(nil), logits...),
			gen.Settings{NumBeams: 1, MaxNewTokens: inst.MaxNew, StopToken: token.EOS, BanSpecials: true})
	}
	return ch.Stats().Checks
}

// TestDefaultTolClearsNoiseFloor drives fault-free generation through
// dense and MoE models with every layer protected: the derived tolerance
// must record zero violations (a detector that cries wolf on clean
// inference is useless), and the worst observed accumulation noise must
// sit well below it so the margin is real, not lucky.
func TestDefaultTolClearsNoiseFloor(t *testing.T) {
	for _, moe := range []bool{false, true} {
		m := testModel(t, moe)

		ch := New(Config{})
		if err := ch.ProtectAll(m); err != nil {
			t.Fatal(err)
		}
		checks := generate(t, m, ch)
		if checks == 0 {
			t.Fatal("no checks ran")
		}
		if got := ch.Stats().Flagged; got != 0 {
			t.Fatalf("moe=%v: %d false positives on fault-free generation (of %d checks)", moe, got, checks)
		}

		// Measure the actual noise by re-running with a tolerance below
		// any achievable float32 deviation, so every check "fails" and
		// reports its deviation.
		probe := New(Config{Tol: 1e-300})
		if err := probe.ProtectAll(m); err != nil {
			t.Fatal(err)
		}
		generate(t, m, probe)
		for _, ev := range probe.Events() {
			w, err := m.Layer(ev.Ref)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Deviation == 0 {
				continue
			}
			tol := DefaultTol(w.In())
			if ratio := ev.Deviation / ev.Scale; ratio > tol/8 {
				t.Errorf("moe=%v %v pos %d: noise %.3g within 8x of tolerance %.3g", moe, ev.Ref, ev.Pos, ratio, tol)
			}
		}
	}
}

// corruptionCase computes one clean linear output and hands the pieces to
// a test: the layer, its input row, and the clean output.
func corruptionCase(t *testing.T, m *model.Model) (ref model.LayerRef, w model.Weight, in, out []float32) {
	t.Helper()
	ref = model.LayerRef{Block: 1, Kind: model.KindQ, Expert: -1}
	var err error
	w, err = m.Layer(ref)
	if err != nil {
		t.Fatal(err)
	}
	in = make([]float32, w.In())
	for i := range in {
		in[i] = float32(math.Sin(float64(i)+0.5)) * 0.8
	}
	out = make([]float32, w.Out())
	w.Forward(out, in)
	return ref, w, in, out
}

func TestDetectsExponentFlipMissesLowMantissa(t *testing.T) {
	m := testModel(t, false)
	ch := New(Config{})
	ref, w, in, out := corruptionCase(t, m)
	if err := ch.Protect(m, ref); err != nil {
		t.Fatal(err)
	}

	// Clean output passes.
	ch.CheckLinear(ref, 0, w, in, out)
	if ch.Stats().Flagged != 0 {
		t.Fatal("clean output flagged")
	}

	// Exponent-MSB flip (BF16 bit 14) is caught.
	corrupted := append([]float32(nil), out...)
	corrupted[3] = float32(numerics.FlipBits(numerics.BF16, float64(corrupted[3]), 14))
	ch.Reset()
	ch.CheckLinear(ref, 0, w, in, corrupted)
	if ch.Stats().Flagged != 1 {
		t.Fatalf("exponent-MSB flip not flagged (value %g -> %g)", out[3], corrupted[3])
	}
	if ev := ch.Events()[0]; ev.Ref != ref || ev.Pos != 0 {
		t.Fatalf("event at %v pos %d, want %v pos 0", ev.Ref, ev.Pos, ref)
	}

	// A low-mantissa flip on a near-zero element escapes: its deviation
	// is a fraction of that element's own magnitude, below the noise
	// tolerance. Pick an element whose flip provably lands under half the
	// threshold so the assertion tests the physics, not one lucky value.
	_, _, scale := tensor.NewChecksums(w.(*model.Dense).T).CheckRow(in, out, 0)
	threshold := DefaultTol(w.In()) * scale
	victim := -1
	for i, v := range out {
		f := numerics.FlipBits(numerics.BF16, float64(v), 0)
		if d := math.Abs(f - float64(v)); d > 0 && d < threshold/2 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no output element small enough for a sub-threshold flip; widen the layer")
	}
	corrupted = append([]float32(nil), out...)
	corrupted[victim] = float32(numerics.FlipBits(numerics.BF16, float64(corrupted[victim]), 0))
	ch.Reset()
	ch.CheckLinear(ref, 0, w, in, corrupted)
	if ch.Stats().Flagged != 0 {
		t.Fatal("sub-threshold mantissa flip flagged; tolerance is too tight")
	}

	// A NaN in the output always fails the check.
	corrupted = append([]float32(nil), out...)
	corrupted[0] = float32(math.NaN())
	ch.Reset()
	ch.CheckLinear(ref, 0, w, in, corrupted)
	if ch.Stats().Flagged != 1 {
		t.Fatal("NaN output not flagged")
	}
}

func TestCorrectRestoresBitIdenticalOutput(t *testing.T) {
	m := testModel(t, false)
	ch := New(Config{Policy: mitigate.PolicyCorrect})
	ref, w, in, out := corruptionCase(t, m)
	if err := ch.Protect(m, ref); err != nil {
		t.Fatal(err)
	}

	corrupted := append([]float32(nil), out...)
	corrupted[7] = float32(numerics.FlipBits(numerics.BF16, float64(corrupted[7]), 14))
	ch.CheckLinear(ref, 5, w, in, corrupted)

	st := ch.Stats()
	if st.Flagged != 1 || st.Corrected != 1 {
		t.Fatalf("stats = %+v, want 1 flagged 1 corrected", st)
	}
	for i, v := range corrupted {
		if v != out[i] {
			t.Fatalf("corrected[%d] = %g, want clean %g", i, v, out[i])
		}
	}
	if ch.Events()[0].Action != mitigate.ActionCorrect {
		t.Fatalf("action = %v, want correct", ch.Events()[0].Action)
	}
}

func TestSkipZeroesPersistentCorruption(t *testing.T) {
	m := testModel(t, false)
	ch := New(Config{Policy: mitigate.PolicyCorrectOrSkip})
	ref, w, in, _ := corruptionCase(t, m)
	// Checksums snapshot the clean weights...
	if err := ch.Protect(m, ref); err != nil {
		t.Fatal(err)
	}
	// ...then a resident fault corrupts the weight itself, so recompute
	// reproduces the corruption and the escalation falls through to skip.
	restore := w.FlipBits(2, 3, []int{14})
	defer restore()

	out := make([]float32, w.Out())
	w.Forward(out, in)
	ch.CheckLinear(ref, 0, w, in, out)

	st := ch.Stats()
	if st.Flagged != 1 || st.Skipped != 1 || st.Corrected != 0 {
		t.Fatalf("stats = %+v, want 1 flagged 1 skipped", st)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("out[%d] = %g after skip, want 0", i, v)
		}
	}
	// PolicyCorrect alone must leave the corrupted output in place.
	ch2 := New(Config{Policy: mitigate.PolicyCorrect})
	if err := ch2.Protect(m, ref); err != nil {
		t.Fatal(err)
	}
	// Note Protect ran with the fault still armed: re-protect from clean
	// weights to keep the reference honest.
	restore()
	ch2 = New(Config{Policy: mitigate.PolicyCorrect})
	if err := ch2.Protect(m, ref); err != nil {
		t.Fatal(err)
	}
	restore2 := w.FlipBits(2, 3, []int{14})
	defer restore2()
	w.Forward(out, in)
	before := append([]float32(nil), out...)
	ch2.CheckLinear(ref, 0, w, in, out)
	if st := ch2.Stats(); st.Flagged != 1 || st.Corrected != 0 || st.Skipped != 0 {
		t.Fatalf("stats = %+v, want flag without correction", st)
	}
	for i, v := range out {
		if v != before[i] {
			t.Fatalf("PolicyCorrect mutated an uncorrectable output at %d", i)
		}
	}
}

// genericWeight hides the *model.Dense concrete type so newLayerSums
// takes the interface Get path.
type genericWeight struct{ model.Weight }

func TestGenericWeightChecksumPath(t *testing.T) {
	m := testModel(t, false)
	ref, w, in, out := corruptionCase(t, m)

	ch := New(Config{})
	if err := ch.Protect(m, ref); err != nil {
		t.Fatal(err)
	}
	fast := ch.sums[ref]

	slow := New(Config{}).newLayerSums(genericWeight{w})
	if len(fast.cs.Sum) != len(slow.cs.Sum) || fast.tol != slow.tol {
		t.Fatal("generic checksum shape/tolerance mismatch")
	}
	for i := range fast.cs.Sum {
		if fast.cs.Sum[i] != slow.cs.Sum[i] || fast.cs.Abs[i] != slow.cs.Abs[i] {
			t.Fatalf("checksum[%d] fast %g/%g vs generic %g/%g",
				i, fast.cs.Sum[i], fast.cs.Abs[i], slow.cs.Sum[i], slow.cs.Abs[i])
		}
	}
	if ok, _, _ := slow.cs.CheckRow(in, out, slow.tol); !ok {
		t.Fatal("generic checksums reject a clean output")
	}
}

func TestProtectUnknownLayer(t *testing.T) {
	m := testModel(t, false)
	ch := New(Config{})
	bad := model.LayerRef{Block: 99, Kind: model.KindQ, Expert: -1}
	if err := ch.Protect(m, bad); err == nil {
		t.Fatal("Protect accepted an out-of-range layer")
	}
}

// TestProtectionCheckerPrecedesFault pins the ordering Protection.Checker
// documents. Its checksums are summed from the model it is handed, so a
// Checker built before a memory fault is armed flags the struck layer,
// and one built after it (over a fresh cache) has taken the corrupted
// weight for its reference and sees nothing. Also pins which layers the
// three shapes of Protection cover.
func TestProtectionCheckerPrecedesFault(t *testing.T) {
	m := testModel(t, false)
	ref, w, in, _ := corruptionCase(t, m)
	other := model.LayerRef{Block: 0, Kind: model.KindQ, Expert: -1}
	site := faults.Site{Fault: faults.Mem2Bit, Layer: ref, Row: 2, Col: 3, Bits: []int{13, 14}}
	p := Protection{Policy: mitigate.PolicyDetect}
	// check runs at's forward on the shared input row through ck.
	check := func(ck *Checker, at model.LayerRef) Stats {
		t.Helper()
		lw, err := m.Layer(at)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float32, lw.Out())
		lw.Forward(out, in)
		ck.Reset()
		ck.CheckLinear(at, 0, lw, in, out)
		return ck.Stats()
	}
	build := func(p Protection, site ...model.LayerRef) *Checker {
		t.Helper()
		ck, err := p.Checker(m, NewCache(), site...)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}

	before := build(p, ref)
	all := build(Protection{AllLayers: true})
	none := build(p)
	clean := w.Get(site.Row, site.Col)
	inj, err := faults.New(m, site, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := build(p, ref)

	if st := check(before, ref); st.Checks != 1 || st.Flagged != 1 {
		t.Errorf("checker built before the fault: %+v at the struck layer, want 1 check 1 flag", st)
	}
	if st := check(after, ref); st.Checks != 1 || st.Flagged != 0 {
		t.Errorf("checker built after the fault: %+v, want 1 check 0 flags (its reference is the corrupted weight)", st)
	}
	if st := check(all, ref); st.Flagged != 1 {
		t.Errorf("all-layer checker at the struck layer: %+v, want a flag", st)
	}
	if st := check(all, other); st.Checks != 1 || st.Flagged != 0 {
		t.Errorf("all-layer checker at a clean layer: %+v, want 1 check 0 flags", st)
	}
	if st := check(before, other); st.Checks != 0 {
		t.Errorf("site-only checker off its site: %+v, want no checks", st)
	}
	if st := check(none, ref); st.Checks != 0 {
		t.Errorf("checker with no site: %+v, want no checks", st)
	}

	inj.Disarm()
	if got := w.Get(site.Row, site.Col); got != clean {
		t.Fatalf("weight %g after Disarm, want %g", got, clean)
	}
	if st := check(before, ref); st.Flagged != 0 {
		t.Errorf("disarmed: %+v, want no flags", st)
	}
	bad := model.LayerRef{Block: 99, Kind: model.KindQ, Expert: -1}
	if ck, err := p.Checker(m, NewCache(), bad); err == nil || ck != nil {
		t.Fatalf("Checker(%v) = %v, %v; want nil and an error", bad, ck, err)
	}
}

func TestDefaultTolScaling(t *testing.T) {
	if DefaultTol(0) <= 0 {
		t.Fatal("DefaultTol(0) not positive")
	}
	if DefaultTol(64) >= DefaultTol(256) {
		t.Fatal("DefaultTol must grow with reduction length")
	}
	// k=64: 4 * 8 * 2^-24 = 1.91e-6.
	want := 4 * 8 * eps32
	if got := DefaultTol(64); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DefaultTol(64) = %g, want %g", got, want)
	}
}
