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

// generate runs a short generation with the checker armed beside strike
// (nil: fault-free) and returns the number of checks performed.
func generate(t *testing.T, m *model.Model, ch *Checker, strike *model.Strike) int {
	t.Helper()
	suite := tasks.NewSelfRefSuite("abft-noise", 4, 3, 40, 16, nil)
	for _, inst := range suite.Instances {
		st := m.NewState()
		st.Checker, st.Strike = ch, strike
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
		checks := generate(t, m, ch, nil)
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
		generate(t, m, probe, nil)
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
	ch.CheckLinear(ref, w, []int{0}, in, out)
	if ch.Stats().Flagged != 0 {
		t.Fatal("clean output flagged")
	}

	// Exponent-MSB flip (BF16 bit 14) is caught.
	corrupted := append([]float32(nil), out...)
	corrupted[3] = float32(numerics.FlipBits(numerics.BF16, float64(corrupted[3]), 14))
	ch = fresh()
	ch.CheckLinear(ref, w, []int{0}, in, corrupted)
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
	ch.CheckLinear(ref, w, []int{0}, in, corrupted)
	if ch.Stats().Flagged != 0 {
		t.Fatal("sub-threshold mantissa flip flagged; tolerance is too tight")
	}

	// A NaN in the output always fails the check.
	corrupted = append([]float32(nil), out...)
	corrupted[0] = float32(math.NaN())
	ch = fresh()
	ch.CheckLinear(ref, w, []int{0}, in, corrupted)
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
	ch.CheckLinear(ref, w, []int{5}, in, corrupted)

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
	restore := w.(*model.Dense).FlipBits(2, 3, []int{14})
	defer restore()

	out := make([]float32, w.Out())
	w.Forward(out, in)
	ch.CheckLinear(ref, w, []int{0}, in, out)

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
	restore2 := w.(*model.Dense).FlipBits(2, 3, []int{14})
	defer restore2()
	w.Forward(out, in)
	before := append([]float32(nil), out...)
	ch2.CheckLinear(ref, w, []int{0}, in, out)
	if st := ch2.Stats(); st.Flagged != 1 || st.Corrected != 0 || st.Skipped != 0 {
		t.Fatalf("stats = %+v, want flag without correction", st)
	}
	for i, v := range out {
		if v != before[i] {
			t.Fatalf("PolicyCorrect mutated an uncorrectable output at %d", i)
		}
	}
}

// TestUnhookedRowsEscalateWithoutRecompute: under a resident weight fault
// a flagged row recomputes to the same bits, so the model hands the
// checker no weight for rows no hook touched, and the escalation skips
// the recompute. A no-op hook makes the model hand it the weight, and so
// recompute: under both correcting policies the counts, the events and
// every logit of a prefill and decode must be the same either way.
func TestUnhookedRowsEscalateWithoutRecompute(t *testing.T) {
	for _, pol := range []mitigate.Policy{mitigate.PolicyCorrect, mitigate.PolicyCorrectOrSkip} {
		m := testModel(t, false)
		p := Protection{Policy: pol, AllLayers: true}
		table := p.Table(m)
		w, err := m.Layer(model.LayerRef{Block: 1, Kind: model.KindQ, Expert: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer w.(*model.Dense).FlipBits(2, 3, []int{14})()
		prompt := make([]int, 40)
		for i := range prompt {
			prompt[i] = token.NumReserved + i*7%50
		}
		run := func(hooked bool) (Stats, []Event, [][]float32) {
			ck := over(t, p, table)
			st := m.NewState()
			st.Checker = ck
			if hooked {
				st.Hooks = []model.Hook{func(model.LayerRef, int, []float32) {}}
			}
			logits := [][]float32{slices.Clone(st.Prefill(prompt))}
			for _, tok := range prompt[:4] {
				logits = append(logits, slices.Clone(st.DecodeStep(tok)))
			}
			return ck.Stats(), ck.Events(), logits
		}
		stats, events, logits := run(false)
		hStats, hEvents, hLogits := run(true)
		if stats.Flagged == 0 || stats.Corrected != 0 || stats != hStats {
			t.Fatalf("%v: %+v without a hook, %+v with one: want equal, with flags and no correction", pol, stats, hStats)
		}
		if !slices.Equal(events, hEvents) {
			t.Fatalf("%v: events differ without a hook", pol)
		}
		for i := range logits {
			for j := range logits[i] {
				if math.Float32bits(logits[i][j]) != math.Float32bits(hLogits[i][j]) {
					t.Fatalf("%v: logit %d of pass %d is %g without a hook, %g with one", pol, j, i, logits[i][j], hLogits[i][j])
				}
			}
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
func checkAt(t *testing.T, m *model.Model, strike *model.Strike, p Protection, table *Table, site []model.LayerRef, at model.LayerRef, in []float32) Stats {
	t.Helper()
	ck := over(t, p, table, site...)
	lw, err := m.Layer(at)
	if err != nil {
		t.Fatal(err)
	}
	if strike != nil && strike.Ref == at {
		lw = strike.W
	}
	out := make([]float32, lw.Out())
	lw.Forward(out, in)
	ck.CheckLinear(at, lw, []int{0}, in, out)
	return ck.Stats()
}

// TestProtectionCheckerPrecedesFault pins that no ordering is left
// between summing a table and arming a fault on the same model: a strike
// is read by the inference it is armed on, never handed out by the
// model, so a table summed before faults.New and one summed after it both
// flag the struck layer. Also pins which layers the three shapes of
// Protection cover.
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
	s := inj.Strike

	if st := checkAt(t, m, s, p, before, at, ref, in); st.Checks != 1 || st.Flagged != 1 {
		t.Errorf("table summed before the fault: %+v at the struck layer, want 1 check 1 flag", st)
	}
	if st := checkAt(t, m, s, p, after, at, ref, in); st.Checks != 1 || st.Flagged != 1 {
		t.Errorf("table summed after the fault: %+v, want 1 check 1 flag (its reference is the clean weight)", st)
	}
	if st := checkAt(t, m, s, all, before, nil, ref, in); st.Flagged != 1 {
		t.Errorf("all-layer checker at the struck layer: %+v, want a flag", st)
	}
	if st := checkAt(t, m, s, all, before, nil, other, in); st.Checks != 1 || st.Flagged != 0 {
		t.Errorf("all-layer checker at a clean layer: %+v, want 1 check 0 flags", st)
	}
	lmHead := model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1}
	if st := checkAt(t, m, s, all, before, nil, lmHead, in); st.Checks != 0 {
		t.Errorf("all-layer checker at the LM head: %+v, want no checks (not a block linear)", st)
	}
	if st := checkAt(t, m, s, p, before, at, other, in); st.Checks != 0 {
		t.Errorf("site-only checker off its site: %+v, want no checks", st)
	}
	if st := checkAt(t, m, s, p, before, nil, ref, in); st.Checks != 0 {
		t.Errorf("checker with no site: %+v, want no checks", st)
	}

	if got := w.Get(site.Row, site.Col); got != clean {
		t.Fatalf("weight %g after arming, want %g", got, clean)
	}
	if st := checkAt(t, m, nil, p, after, at, ref, in); st.Flagged != 0 {
		t.Errorf("unstruck: %+v, want no flags", st)
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
// built over a copy-on-write clone and armed on an inference, and no
// order between the two matters. The table flags an exponent flip at the
// struck layer of the clone under site-only and all-layer protection, the
// summed model's storage stays bit-identical, and without the strike the
// same table passes the clone.
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

			if st := checkAt(t, clone, inj.Strike, sited, table, at, tc.ref, in); st.Checks != 1 || st.Flagged != 1 {
				t.Errorf("site-only on the struck clone: %+v, want 1 check 1 flag", st)
			}
			if st := checkAt(t, clone, inj.Strike, all, table, nil, tc.ref, in); st.Checks != 1 || st.Flagged != 1 {
				t.Errorf("all-layer on the struck clone: %+v, want 1 check 1 flag", st)
			}
			if st := checkAt(t, m, nil, all, table, nil, tc.ref, in); st.Checks != 1 || st.Flagged != 0 {
				t.Errorf("the summed model while its clone is struck: %+v, want 1 check 0 flags", st)
			}
			if got, _ := m.Layer(tc.ref); !slices.Equal(weightBits(got), pristine) {
				t.Fatal("arming the clone changed the summed model's storage")
			}
			for _, p := range []Protection{sited, all} {
				if st := checkAt(t, clone, nil, p, table, at, tc.ref, in); st.Checks != 1 || st.Flagged != 0 {
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

	// flagged generates on clone under strike through a new Checker over
	// the table.
	flagged := func(clone *model.Model, strike *model.Strike) (checks, flags int) {
		ck, err := p.Checker(table)
		if err != nil {
			t.Error(err)
			return 0, 0
		}
		checks = generate(t, clone, ck, strike)
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
					if _, flags := flagged(clone, inj.Strike); flags == 0 {
						t.Errorf("goroutine %d round %d: armed clone raised no flag", g, round)
					}
				}
				if checks, flags := flagged(clone, nil); checks == 0 || flags != 0 {
					t.Errorf("goroutine %d round %d: %d checks %d flags on clean weights, want >0 and 0", g, round, checks, flags)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCheckerConcurrentRows: a prefill runs its positions in shards, so
// one Checker is called on distinct rows at once. Under a resident fault
// and a correct-or-skip policy — every flag takes the lock and repairs
// its row in the shared scratch — a 100-position prefill on three
// threads must leave the counters, and the events in their
// position-sorted order, of the same prefill fed one position at a time.
func TestCheckerConcurrentRows(t *testing.T) {
	m := testModel(t, false)
	p := Protection{AllLayers: true, Policy: mitigate.PolicyCorrectOrSkip}
	table := p.Table(m)
	site := faults.Site{Fault: faults.Mem2Bit, Layer: model.LayerRef{Block: 1, Kind: model.KindUp, Expert: -1},
		Row: 2, Col: 3, Bits: []int{13, 14}}
	prompt := tasks.NewSelfRefSuite("abft-rows", 4, 1, 100, 4, nil).Instances[0].Prompt
	run := func(threads int, sequential bool) (*Checker, []float32) {
		clone := m.CloneShared()
		clone.SetThreads(threads)
		clone.SetSequentialPrefill(sequential)
		inj, err := faults.New(clone, site, 0)
		if err != nil {
			t.Fatal(err)
		}
		ck := over(t, p, table)
		st := clone.NewState()
		st.Strike, st.Checker = inj.Strike, ck
		return ck, slices.Clone(st.Prefill(prompt))
	}
	want, wantLogits := run(1, true)
	if want.Stats().Skipped == 0 {
		t.Fatalf("reference stats %+v: the fault skipped no row", want.Stats())
	}
	for _, threads := range []int{2, 3} {
		got, gotLogits := run(threads, false)
		if got.Stats() != want.Stats() {
			t.Fatalf("threads=%d: stats %+v, per-position reference %+v", threads, got.Stats(), want.Stats())
		}
		if !slices.Equal(got.Events(), want.Events()) {
			t.Fatalf("threads=%d: events differ from the per-position reference", threads)
		}
		if !slices.Equal(gotLogits, wantLogits) {
			t.Fatalf("threads=%d: logits differ from the per-position reference", threads)
		}
	}
}

// TestCheckerAllocs keeps arming from ever enumerating the model per
// trial again: an all-layer Checker is one allocation, a site-only one
// adds its copy of the site list. And a check allocates nothing: a span
// of rows longer than one kernel group, through CheckLinear and through
// Check with a verdict buffer.
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

	w, err := m.Layer(ref)
	if err != nil {
		t.Fatal(err)
	}
	const rows = checkGroup + 9
	k, n := w.In(), w.Out()
	pos := make([]int, rows)
	in, out := make([]float32, rows*k), make([]float32, rows*n)
	for i := range pos {
		pos[i] = i
		for p := range k {
			in[i*k+p] = float32(math.Sin(float64(i*k+p) + 0.5))
		}
		w.Forward(out[i*n:(i+1)*n], in[i*k:(i+1)*k])
	}
	ck := over(t, Protection{AllLayers: true}, table)
	flagged := make([]bool, rows)
	if n := testing.AllocsPerRun(100, func() { ck.CheckLinear(ref, w, pos, in, out) }); n != 0 {
		t.Errorf("CheckLinear over %d rows: %v allocations, want 0", rows, n)
	}
	if n := testing.AllocsPerRun(100, func() { ck.Check(ref, w, pos, in, out, flagged) }); n != 0 {
		t.Errorf("Check over %d rows: %v allocations, want 0", rows, n)
	}
	if st := ck.Stats(); st.Checks != 2*101*rows || st.Flagged != 0 {
		t.Fatalf("stats %+v: want %d clean checks", st, 2*101*rows)
	}
}

// TestCheckerSpansMatchDecodeSteps: a prefill checks each layer's rows in
// one call per shard, a DecodeStep its one row. A correcting all-layer
// Checker must count, record and repair the same whichever way the
// positions came: under a resident fault, a prefill on one to three
// threads (sharded), and under a transient corruption of chosen output
// rows, a prefill whose hook keeps it one shard (one call per layer over
// all 100 positions, past several kernel groups) — each against the
// prompt fed one position per pass, its Stats, its Events in order and
// its logits.
func TestCheckerSpansMatchDecodeSteps(t *testing.T) {
	m := testModel(t, false)
	p := Protection{AllLayers: true, Policy: mitigate.PolicyCorrectOrSkip}
	table := p.Table(m)
	prompt := tasks.NewSelfRefSuite("abft-spans", 5, 1, 100, 4, nil).Instances[0].Prompt
	site := faults.Site{Fault: faults.Mem2Bit, Layer: model.LayerRef{Block: 2, Kind: model.KindDown, Expert: -1},
		Row: 7, Col: 1, Bits: []int{13, 14}}
	// strike flips an exponent bit of one output element of block 0's V
	// projection at every seventh position: a transient the recompute
	// repairs.
	strike := func(ref model.LayerRef, pos int, out []float32) {
		if ref.Block == 0 && ref.Kind == model.KindV && pos%7 == 3 {
			out[5] = float32(numerics.FlipBits(numerics.BF16, float64(out[5]), 14))
		}
	}
	run := func(threads int, sequential, resident bool) (*Checker, []float32) {
		clone := m.CloneShared()
		clone.SetThreads(threads)
		clone.SetSequentialPrefill(sequential)
		st := clone.NewState()
		if resident {
			inj, err := faults.New(clone, site, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.Strike = inj.Strike
		} else {
			st.Hooks = []model.Hook{strike}
		}
		ck := over(t, p, table)
		st.Checker = ck
		return ck, slices.Clone(st.Prefill(prompt))
	}
	for _, resident := range []bool{true, false} {
		want, wantLogits := run(1, true, resident)
		if st := want.Stats(); st.Flagged == 0 || !resident && st.Corrected == 0 {
			t.Fatalf("resident=%v: reference stats %+v: nothing to compare", resident, st)
		}
		for _, threads := range []int{1, 2, 3} {
			got, gotLogits := run(threads, false, resident)
			if got.Stats() != want.Stats() {
				t.Fatalf("resident=%v threads=%d: stats %+v, per-position reference %+v", resident, threads, got.Stats(), want.Stats())
			}
			if !slices.Equal(got.Events(), want.Events()) {
				t.Fatalf("resident=%v threads=%d: events differ from the per-position reference", resident, threads)
			}
			if !slices.Equal(gotLogits, wantLogits) {
				t.Fatalf("resident=%v threads=%d: logits differ from the per-position reference", resident, threads)
			}
		}
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
