package trace

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestRecordJSONRoundTrip requires a fully-populated Record to survive
// Marshal/Unmarshal bit-identically — the JSONL export contract.
func TestRecordJSONRoundTrip(t *testing.T) {
	rec := Record{
		Schema: SchemaVersion, Trial: 7, Instance: 2,
		Fault: "comp-1bit", Site: "t7 block1.up_proj row3 bit14",
		Layer: "block1.up_proj", Block: 1, Bits: []int{14}, HighestBit: 14,
		GenIter: 3, StrikePos: 21, Fired: true, Outcome: "Distorted",
		AnswerOK: false, Steps: 9,
		FirstDivergence: &Divergence{
			Layer: "block1.up_proj", Block: 1, Pos: 21, RelL2: 4.5, LInf: 120,
		},
		PropagationDepth: 3, BlastRadius: 0.875, MaxRelL2: 9.25, MaxLInf: 300.5,
		Compared: 48,
		Layers: []LayerDev{
			{Layer: "block1.up_proj", Block: 1, Pos: 21, RelL2: 4.5, LInf: 120, Exceeded: true},
			{Layer: "block2.q_proj", Block: 2, Pos: 21, RelL2: 0.5, LInf: 3, Exceeded: true},
		},
		LogitMargins: []Margin{{Pos: 21, Margin: 1.25, Diverged: true}},
		Spans: []Span{
			{Phase: PhasePrefill, Seconds: 0.001},
			{Phase: PhaseDecode, Seconds: 0.01, Count: 9},
		},
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", rec, back)
	}
}

// TestPhaseIndex pins the canonical ordering the telemetry histograms
// key on.
func TestPhaseIndex(t *testing.T) {
	for i, p := range Phases {
		if PhaseIndex(p) != i {
			t.Fatalf("PhaseIndex(%s) = %d, want %d", p, PhaseIndex(p), i)
		}
	}
	if PhaseIndex("nope") != -1 {
		t.Fatal("unknown phase must map to -1")
	}
}

func TestFiniteClamp(t *testing.T) {
	cases := map[float64]float64{
		math.NaN():   math.MaxFloat64,
		math.Inf(1):  math.MaxFloat64,
		math.Inf(-1): -math.MaxFloat64,
		1.5:          1.5,
	}
	for in, want := range cases {
		if got := finite(in); got != want {
			t.Errorf("finite(%v) = %v, want %v", in, got, want)
		}
	}
}

// TestCaptureSemantics: rows below minPos are dropped, rows are copied
// (not aliased), and a sealed capture ignores further writes.
func TestCaptureSemantics(t *testing.T) {
	cc := NewCapture(5)
	hook := cc.Hook()
	ref := model.LayerRef{Block: 0, Kind: model.KindUp, Expert: -1}
	src := []float32{1, 2, 3}
	hook(ref, 4, src) // below minPos: dropped
	hook(ref, 5, src)
	src[0] = 99 // must not leak into the stored row
	if cc.Len() != 1 {
		t.Fatalf("capture holds %d rows, want 1", cc.Len())
	}
	if got := cc.row(ref, 5); got[0] != 1 {
		t.Fatalf("captured row aliases the source: %v", got)
	}
	cc.Seal()
	hook(ref, 6, src)
	if cc.Len() != 1 {
		t.Fatal("sealed capture accepted a write")
	}
}

// Layer reassembles one layer's rows in position order, whatever order
// the hook saw them in, and leaves other layers' rows out.
func TestCaptureLayerPositionOrder(t *testing.T) {
	cc := NewCapture(0)
	hook := cc.Hook()
	up := model.LayerRef{Block: 0, Kind: model.KindUp, Expert: -1}
	down := model.LayerRef{Block: 0, Kind: model.KindDown, Expert: -1}
	for _, pos := range []int{2, 0, 3, 1} {
		hook(up, pos, []float32{float32(pos), float32(10 * pos)})
		hook(down, pos, []float32{-1, -1})
	}
	got := cc.Layer(up)
	if got.Rows != 4 || got.Cols != 2 {
		t.Fatalf("Layer is %dx%d, want 4x2", got.Rows, got.Cols)
	}
	for pos := 0; pos < 4; pos++ {
		if row := got.Row(pos); row[0] != float32(pos) || row[1] != float32(10*pos) {
			t.Fatalf("row %d = %v", pos, row)
		}
	}
	none := model.LayerRef{Block: 1, Kind: model.KindUp, Expert: -1}
	if empty := cc.Layer(none); empty.Rows != 0 {
		t.Fatalf("an uncaptured layer has %d rows", empty.Rows)
	}
}

// probeRefs builds the synthetic 4-block layer sequence used by the
// probe tests, ending with the LM head.
func probeRefs() []model.LayerRef {
	refs := make([]model.LayerRef, 0, 5)
	for b := 0; b < 4; b++ {
		refs = append(refs, model.LayerRef{Block: b, Kind: model.KindUp, Expert: -1})
	}
	refs = append(refs, model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1})
	return refs
}

// feedClean replays one clean forward at pos into a hook.
func feedClean(hook model.Hook, refs []model.LayerRef, pos int) {
	for _, r := range refs {
		hook(r, pos, []float32{1, 2, 3, 4})
	}
}

// TestProbeTransientDivergence is the deterministic first-divergence
// check: a large perturbation injected at block1 (the configured site)
// must register the first divergence at exactly that layer and position,
// count the downstream cascade, and report a full blast radius.
func TestProbeTransientDivergence(t *testing.T) {
	refs := probeRefs()
	const strike = 7
	cc := NewCapture(strike)
	ch := cc.Hook()
	feedClean(ch, refs, strike)
	feedClean(ch, refs, strike+1)
	cc.Seal()

	site := refs[1]
	p := NewProbe(cc, ProbeConfig{StrikePos: strike, Site: site})
	ph := p.Hook()
	// Faulty pass at the strike position: block0 clean, block1 (site)
	// grossly corrupted, blocks 2-3 and the LM head dragged along.
	ph(refs[0], strike, []float32{1, 2, 3, 4})
	ph(refs[1], strike, []float32{1, 2, 3, 4000})
	ph(refs[2], strike, []float32{10, 2, 3, 4})
	ph(refs[3], strike, []float32{1, 20, 3, 4})
	ph(refs[4], strike, []float32{1, 2, 30, 4})
	// Next position: everything still off.
	for _, r := range refs {
		ph(r, strike+1, []float32{2, 2, 3, 4})
	}

	var rec Record
	p.Fill(&rec)
	if rec.FirstDivergence == nil {
		t.Fatal("no first divergence recorded")
	}
	if rec.FirstDivergence.Layer != site.String() || rec.FirstDivergence.Pos != strike {
		t.Fatalf("first divergence at %s pos %d, want %s pos %d",
			rec.FirstDivergence.Layer, rec.FirstDivergence.Pos, site, strike)
	}
	// Blocks 1, 2, 3 exceeded at the strike position; the LM head (block
	// -1) is excluded from the depth count.
	if rec.PropagationDepth != 3 {
		t.Fatalf("propagation depth = %d, want 3", rec.PropagationDepth)
	}
	// Downstream window: site + blocks 2, 3 + LM head = 4 invocations,
	// all exceeded.
	if rec.BlastRadius != 1 {
		t.Fatalf("blast radius = %v, want 1", rec.BlastRadius)
	}
	if len(rec.Layers) != len(refs) {
		t.Fatalf("per-layer profile has %d rows, want %d", len(rec.Layers), len(refs))
	}
	if rec.Layers[0].Exceeded {
		t.Fatal("pre-site layer must not read as exceeded")
	}
	if rec.Compared != 2*len(refs) {
		t.Fatalf("compared = %d, want %d", rec.Compared, 2*len(refs))
	}
}

// TestProbeBelowTolerance: mantissa-noise-sized perturbations must not
// register any divergence.
func TestProbeBelowTolerance(t *testing.T) {
	refs := probeRefs()
	const strike = 3
	cc := NewCapture(strike)
	ch := cc.Hook()
	feedClean(ch, refs, strike)
	cc.Seal()

	p := NewProbe(cc, ProbeConfig{StrikePos: strike, Site: refs[1]})
	ph := p.Hook()
	for _, r := range refs {
		ph(r, strike, []float32{1, 2, 3, 4.000001})
	}
	var rec Record
	p.Fill(&rec)
	if rec.FirstDivergence != nil {
		t.Fatalf("sub-tolerance deviation flagged as divergence: %+v", rec.FirstDivergence)
	}
	if rec.PropagationDepth != 0 || rec.BlastRadius != 0 {
		t.Fatalf("depth/blast = %d/%v, want 0/0", rec.PropagationDepth, rec.BlastRadius)
	}
	if rec.MaxRelL2 <= 0 {
		t.Fatal("max deviation should still record the sub-tolerance wiggle")
	}
}

// TestProbeResidentFault: with StrikePos < 0 (memory faults, live
// everywhere) the profile anchors at the first diverged position.
func TestProbeResidentFault(t *testing.T) {
	refs := probeRefs()
	cc := NewCapture(0)
	ch := cc.Hook()
	feedClean(ch, refs, 0)
	feedClean(ch, refs, 1)
	cc.Seal()

	p := NewProbe(cc, ProbeConfig{StrikePos: -1})
	ph := p.Hook()
	feedClean(ph, refs, 0) // clean at pos 0
	// Diverges from block2 onward at pos 1.
	ph(refs[0], 1, []float32{1, 2, 3, 4})
	ph(refs[1], 1, []float32{1, 2, 3, 4})
	ph(refs[2], 1, []float32{1, 2, 3, 400})
	ph(refs[3], 1, []float32{1, 200, 3, 4})
	ph(refs[4], 1, []float32{1, 2, 3, 4})

	var rec Record
	p.Fill(&rec)
	if rec.FirstDivergence == nil || rec.FirstDivergence.Pos != 1 ||
		rec.FirstDivergence.Layer != refs[2].String() {
		t.Fatalf("bad first divergence %+v", rec.FirstDivergence)
	}
	if rec.PropagationDepth != 2 {
		t.Fatalf("depth = %d, want 2 (blocks 2 and 3)", rec.PropagationDepth)
	}
	// Downstream window opens at the first diverged invocation (block2):
	// block2, block3, lm_head = 3 invocations, 2 exceeded.
	if want := 2.0 / 3.0; rec.BlastRadius != want {
		t.Fatalf("blast radius = %v, want %v", rec.BlastRadius, want)
	}
}

// TestProbeLogitMargins checks the margin trajectory and argmax
// divergence flag from LM-head invocations.
func TestProbeLogitMargins(t *testing.T) {
	lm := model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1}
	cc := NewCapture(0)
	ch := cc.Hook()
	ch(lm, 0, []float32{0, 1, 5}) // clean argmax 2
	cc.Seal()

	p := NewProbe(cc, ProbeConfig{StrikePos: 0, Site: lm})
	ph := p.Hook()
	ph(lm, 0, []float32{9, 1, 5}) // faulty argmax 0, margin 4
	ph(lm, 1, []float32{0, 2, 3}) // no clean row: diverged by definition

	var rec Record
	p.Fill(&rec)
	if len(rec.LogitMargins) != 2 {
		t.Fatalf("got %d margins, want 2", len(rec.LogitMargins))
	}
	m0 := rec.LogitMargins[0]
	if !m0.Diverged || m0.Margin != 4 || m0.Pos != 0 {
		t.Fatalf("bad margin sample %+v", m0)
	}
	if !rec.LogitMargins[1].Diverged {
		t.Fatal("position without clean logits must read as diverged")
	}
}

// TestProbeNonFiniteClamped: a NaN activation reads as infinite
// deviation, and the filled record still marshals to JSON.
func TestProbeNonFiniteClamped(t *testing.T) {
	refs := probeRefs()
	cc := NewCapture(0)
	ch := cc.Hook()
	feedClean(ch, refs, 0)
	cc.Seal()

	p := NewProbe(cc, ProbeConfig{StrikePos: 0, Site: refs[0]})
	ph := p.Hook()
	ph(refs[0], 0, []float32{float32(math.NaN()), 2, 3, 4})

	var rec Record
	p.Fill(&rec)
	if rec.MaxRelL2 != math.MaxFloat64 || rec.FirstDivergence == nil ||
		rec.FirstDivergence.RelL2 != math.MaxFloat64 {
		t.Fatalf("non-finite deviation not clamped: %+v", rec)
	}
	if _, err := json.Marshal(rec); err != nil {
		t.Fatalf("clamped record does not marshal: %v", err)
	}
}

func TestTopMargin(t *testing.T) {
	if i, m := topMargin([]float32{1, 3, 2}); i != 1 || m != 1 {
		t.Fatalf("topMargin = %d, %v, want 1, 1", i, m)
	}
	// NaN entries never win.
	if i, _ := topMargin([]float32{float32(math.NaN()), 2, 1}); i != 1 {
		t.Fatalf("NaN won the argmax: %d", i)
	}
	if i, m := topMargin([]float32{7}); i != 0 || m != 0 {
		t.Fatalf("single-entry margin = %d, %v, want 0, 0", i, m)
	}
}

// TestDeviationZero pins the bit-identical case: identical rows deviate
// by exactly zero, so clean pre-site layers can never false-positive.
func TestDeviationZero(t *testing.T) {
	v := []float32{1.5, -2.25, 0, 4}
	rel, linf := deviation(v, v)
	if rel != 0 || linf != 0 {
		t.Fatalf("deviation of identical rows = %v, %v", rel, linf)
	}
}
