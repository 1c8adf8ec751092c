package abft

import (
	"math"
	"slices"
	"sync"
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

// over builds one trial's Checker over table.
func over(t *testing.T, p Protection, table *Table, site ...model.LayerRef) *Checker {
	t.Helper()
	ck, err := p.Checker(table, site...)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// checker builds a Checker over a table summed from m as it stands.
func checker(t *testing.T, p Protection, m *model.Model, site ...model.LayerRef) *Checker {
	t.Helper()
	return over(t, p, p.Table(m), site...)
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

		ch := checker(t, Protection{AllLayers: true}, m)
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
		probe := checker(t, Protection{Tol: 1e-300, AllLayers: true}, m)
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
	ref, w, in, out := corruptionCase(t, m)
	table := Protection{}.Table(m)
	// fresh is a new trial's Checker over the one table.
	fresh := func() *Checker { return over(t, Protection{}, table, ref) }

	// Clean output passes.
	ch := fresh()
	ch.CheckLinear(ref, 0, w, in, out)
	if ch.Stats().Flagged != 0 {
		t.Fatal("clean output flagged")
	}

	// Exponent-MSB flip (BF16 bit 14) is caught.
	corrupted := append([]float32(nil), out...)
	corrupted[3] = float32(numerics.FlipBits(numerics.BF16, float64(corrupted[3]), 14))
	ch = fresh()
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
	ch = fresh()
	ch.CheckLinear(ref, 0, w, in, corrupted)
	if ch.Stats().Flagged != 0 {
		t.Fatal("sub-threshold mantissa flip flagged; tolerance is too tight")
	}

	// A NaN in the output always fails the check.
	corrupted = append([]float32(nil), out...)
	corrupted[0] = float32(math.NaN())
	ch = fresh()
	ch.CheckLinear(ref, 0, w, in, corrupted)
	if ch.Stats().Flagged != 1 {
		t.Fatal("NaN output not flagged")
	}
}

func TestCorrectRestoresBitIdenticalOutput(t *testing.T) {
	m := testModel(t, false)
	ref, w, in, out := corruptionCase(t, m)
	ch := checker(t, Protection{Policy: mitigate.PolicyCorrect}, m, ref)

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
	ref, w, in, _ := corruptionCase(t, m)
	// Checksums snapshot the clean weights...
	ch := checker(t, Protection{Policy: mitigate.PolicyCorrectOrSkip}, m, ref)
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
	// PolicyCorrect alone must leave the corrupted output in place. The
	// fault is still armed: restore first, so the table is summed from
	// clean weights and the reference stays honest.
	restore()
	ch2 := checker(t, Protection{Policy: mitigate.PolicyCorrect}, m, ref)
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

	fast := Protection{}.Table(m).sums[ref]
	slow := newLayerSums(genericWeight{w}, 0)
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
	table := Protection{}.Table(m)
	for _, bad := range []model.LayerRef{
		{Block: 99, Kind: model.KindQ, Expert: -1},
		{Block: -1, Kind: model.KindLMHead, Expert: -1}, // not a block linear: the table holds no sums for it
	} {
		if ck, err := (Protection{}).Checker(table, bad); err == nil || ck != nil {
			t.Fatalf("Checker(%v) = %v, %v; want nil and an error", bad, ck, err)
		}
		// All-layer protection names no site, so it has none to refuse.
		if _, err := (Protection{AllLayers: true}).Checker(table, bad); err != nil {
			t.Fatalf("all-layer Checker(%v): %v", bad, err)
		}
	}
}

// checkAt runs at's forward pass on m over the input row in, through a
// new Checker built by p over table, and returns what it counted.
func checkAt(t *testing.T, m *model.Model, p Protection, table *Table, site []model.LayerRef, at model.LayerRef, in []float32) Stats {
	t.Helper()
	ck := over(t, p, table, site...)
	lw, err := m.Layer(at)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float32, lw.Out())
	lw.Forward(out, in)
	ck.CheckLinear(at, 0, lw, in, out)
	return ck.Stats()
}

// TestProtectionCheckerPrecedesFault pins the one ordering left: a caller
// that strikes the very model it summed builds the table first. A table
// summed before a memory fault is armed flags the struck layer; one
// summed after it has taken the corrupted weight for its reference and
// sees nothing. Also pins which layers the three shapes of Protection
// cover.
func TestProtectionCheckerPrecedesFault(t *testing.T) {
	m := testModel(t, false)
	ref, w, in, _ := corruptionCase(t, m)
	other := model.LayerRef{Block: 0, Kind: model.KindQ, Expert: -1}
	site := faults.Site{Fault: faults.Mem2Bit, Layer: ref, Row: 2, Col: 3, Bits: []int{13, 14}}
	p := Protection{Policy: mitigate.PolicyDetect}
	all := Protection{AllLayers: true}
	at := []model.LayerRef{ref}

	before := p.Table(m)
	clean := w.Get(site.Row, site.Col)
	inj, err := faults.New(m, site, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := p.Table(m)

	if st := checkAt(t, m, p, before, at, ref, in); st.Checks != 1 || st.Flagged != 1 {
		t.Errorf("table summed before the fault: %+v at the struck layer, want 1 check 1 flag", st)
	}
	if st := checkAt(t, m, p, after, at, ref, in); st.Checks != 1 || st.Flagged != 0 {
		t.Errorf("table summed after the fault: %+v, want 1 check 0 flags (its reference is the corrupted weight)", st)
	}
	if st := checkAt(t, m, all, before, nil, ref, in); st.Flagged != 1 {
		t.Errorf("all-layer checker at the struck layer: %+v, want a flag", st)
	}
	if st := checkAt(t, m, all, before, nil, other, in); st.Checks != 1 || st.Flagged != 0 {
		t.Errorf("all-layer checker at a clean layer: %+v, want 1 check 0 flags", st)
	}
	lmHead := model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1}
	if st := checkAt(t, m, all, before, nil, lmHead, in); st.Checks != 0 {
		t.Errorf("all-layer checker at the LM head: %+v, want no checks (not a block linear)", st)
	}
	if st := checkAt(t, m, p, before, at, other, in); st.Checks != 0 {
		t.Errorf("site-only checker off its site: %+v, want no checks", st)
	}
	if st := checkAt(t, m, p, before, nil, ref, in); st.Checks != 0 {
		t.Errorf("checker with no site: %+v, want no checks", st)
	}

	inj.Disarm()
	if got := w.Get(site.Row, site.Col); got != clean {
		t.Fatalf("weight %g after Disarm, want %g", got, clean)
	}
	if st := checkAt(t, m, p, before, at, ref, in); st.Flagged != 0 {
		t.Errorf("disarmed: %+v, want no flags", st)
	}
}

// weightBits snapshots a weight's stored values bit for bit.
func weightBits(w model.Weight) []uint64 {
	bits := make([]uint64, 0, w.In()*w.Out())
	for r := 0; r < w.In(); r++ {
		for c := 0; c < w.Out(); c++ {
			bits = append(bits, math.Float64bits(w.Get(r, c)))
		}
	}
	return bits
}

// TestTableFromCleanModelJudgesClone is the argument core and serve rest
// on: the table is summed from the model nobody strikes, the fault is
// armed on a copy-on-write clone, and no order between the two matters.
// The table flags an exponent flip at the struck layer of the clone under
// site-only and all-layer protection, the summed model's storage stays
// bit-identical, and after Disarm the same table passes the clone.
func TestTableFromCleanModelJudgesClone(t *testing.T) {
	for _, tc := range []struct {
		name string
		moe  bool
		ref  model.LayerRef
	}{
		{"dense", false, model.LayerRef{Block: 1, Kind: model.KindQ, Expert: -1}},
		{"moe-expert", true, model.LayerRef{Block: 1, Kind: model.KindUp, Expert: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel(t, tc.moe)
			w, err := m.Layer(tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]float32, w.In())
			for i := range in {
				in[i] = float32(math.Sin(float64(i)+0.5)) * 0.8
			}
			pristine := weightBits(w)
			at := []model.LayerRef{tc.ref}
			sited := Protection{Policy: mitigate.PolicyDetect}
			all := Protection{AllLayers: true}

			// Armed first, summed second: the table still reads m, not the clone.
			clone := m.CloneShared()
			site := faults.Site{Fault: faults.Mem2Bit, Layer: tc.ref, Row: 2, Col: 3, Bits: []int{13, 14}}
			inj, err := faults.New(clone, site, 0)
			if err != nil {
				t.Fatal(err)
			}
			table := sited.Table(m)

			if st := checkAt(t, clone, sited, table, at, tc.ref, in); st.Checks != 1 || st.Flagged != 1 {
				t.Errorf("site-only on the struck clone: %+v, want 1 check 1 flag", st)
			}
			if st := checkAt(t, clone, all, table, nil, tc.ref, in); st.Checks != 1 || st.Flagged != 1 {
				t.Errorf("all-layer on the struck clone: %+v, want 1 check 1 flag", st)
			}
			if st := checkAt(t, m, all, table, nil, tc.ref, in); st.Checks != 1 || st.Flagged != 0 {
				t.Errorf("the summed model while its clone is struck: %+v, want 1 check 0 flags", st)
			}
			if got, _ := m.Layer(tc.ref); !slices.Equal(weightBits(got), pristine) {
				t.Fatal("arming the clone changed the summed model's storage")
			}
			inj.Disarm()
			for _, p := range []Protection{sited, all} {
				if st := checkAt(t, clone, p, table, at, tc.ref, in); st.Checks != 1 || st.Flagged != 0 {
					t.Errorf("disarmed clone (all=%v): %+v, want 1 check 0 flags", p.AllLayers, st)
				}
			}
		})
	}
}

// TestTableConcurrentCheckers is the immutability claim under -race:
// eight goroutines, each with its own all-layer Checker over one Table
// and its own copy-on-write clone, generate at once while two of them
// flip and restore a weight on their clone. Nothing writes the table, so
// the clean six see no flag, before or after, and the struck two see
// theirs only while armed.
func TestTableConcurrentCheckers(t *testing.T) {
	m := testModel(t, false)
	p := Protection{AllLayers: true}
	table := p.Table(m)
	site := faults.Site{Fault: faults.Mem2Bit, Layer: model.LayerRef{Block: 1, Kind: model.KindQ, Expert: -1},
		Row: 2, Col: 3, Bits: []int{13, 14}}

	// flagged generates on clone through a new Checker over the table.
	flagged := func(clone *model.Model) (checks, flags int) {
		ck, err := p.Checker(table)
		if err != nil {
			t.Error(err)
			return 0, 0
		}
		checks = generate(t, clone, ck)
		return checks, ck.Stats().Flagged
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clone := m.CloneShared()
			for round := 0; round < 2; round++ {
				if g < 2 {
					inj, err := faults.New(clone, site, 0)
					if err != nil {
						t.Error(err)
						return
					}
					if _, flags := flagged(clone); flags == 0 {
						t.Errorf("goroutine %d round %d: armed clone raised no flag", g, round)
					}
					inj.Disarm()
				}
				if checks, flags := flagged(clone); checks == 0 || flags != 0 {
					t.Errorf("goroutine %d round %d: %d checks %d flags on clean weights, want >0 and 0", g, round, checks, flags)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCheckerAllocs keeps arming from ever enumerating the model per
// trial again: an all-layer Checker is one allocation, a site-only one
// adds its copy of the site list.
func TestCheckerAllocs(t *testing.T) {
	m := testModel(t, false)
	table := Protection{}.Table(m)
	ref := model.LayerRef{Block: 1, Kind: model.KindQ, Expert: -1}
	var sink *Checker
	if n := testing.AllocsPerRun(100, func() { sink, _ = Protection{AllLayers: true}.Checker(table) }); n > 1 {
		t.Errorf("all-layer Checker: %v allocations, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink, _ = Protection{}.Checker(table, ref) }); n > 2 {
		t.Errorf("site-only Checker: %v allocations, want <= 2", n)
	}
	_ = sink
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
