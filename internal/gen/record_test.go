package gen

import (
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/token"
)

// flagAt is a checker that checks every row and flags the one at
// sublayer sub and position pos.
type flagAt struct{ sub, pos int }

func (f flagAt) Check(ref model.LayerRef, _ model.Weight, pos []int, _, _ []float32, flagged []bool) bool {
	for _, p := range pos {
		flagged[p] = ref.Sublayer() == f.sub && p == f.pos
	}
	return true
}

// TestRecordHoldsTheDecode: a greedy record holds the clean decode's
// tokens, one resume point per step and the state it finished on; a beam
// record, the post-prompt snapshot and logits; a ledger counts every
// block linear at every position the record computed — the prompt's too,
// whose positions a prefill on two threads checks in shards at once.
func TestRecordHoldsTheDecode(t *testing.T) {
	m := testModel(10)
	m.SetThreads(2)
	prompt := make([]int, 36)
	for i := range prompt {
		prompt[i] = 3 + i%17
	}
	s := Defaults(10)
	s.MinNewTokens = 10
	want := Generate(m, prompt, s)
	r, res := NewRecord(m, m.NewState(), prompt, s, RecordOpts{Ledger: flagAt{-1, -1}})
	if !slices.Equal(r.Tokens, want.Tokens) || res.Steps+len(prompt) != want.Steps || len(r.Resume) != len(r.Tokens)+1 ||
		r.Prefix.Pos() != len(prompt)+len(r.Tokens) || r.Logits != nil {
		t.Fatalf("greedy record: %d tokens, %d points, prefix at %d", len(r.Tokens), len(r.Resume), r.Prefix.Pos())
	}
	if m.Observed() {
		t.Fatal("the ledger's checker stayed on the model")
	}
	if got := r.Ledger.Skipped(2*m.Cfg.NBlocks, 0, r.Prefix.Pos()); got != len(m.LinearLayers())*r.Prefix.Pos() {
		t.Fatalf("ledger counted %d checks, want %d linears at %d positions", got, len(m.LinearLayers()), r.Prefix.Pos())
	}
	if r.Ledger.lowest != 2*m.Cfg.NBlocks || r.Ledger.first != len(r.Tokens) {
		t.Fatalf("a ledger that saw no flag: lowest %d, first %d", r.Ledger.lowest, r.Ledger.first)
	}
	s.NumBeams = 2
	b, _ := NewRecord(m, m.NewState(), prompt, s, RecordOpts{})
	if b.Prefix.Pos() != len(prompt) || len(b.Logits) != m.Cfg.Vocab || b.Resume != nil || b.Ledger != nil {
		t.Fatalf("beam record: prefix at %d, %d logits, %d points", b.Prefix.Pos(), len(b.Logits), len(b.Resume))
	}
}

// TestRecordLedger pins the ledger's sums — the checks below a sublayer
// over a count of positions from a fork position, which differ from
// position to position here so that a fork position off by one shows —
// its lowest flagged sublayer and its first flagged decode step, which
// bounds a served request's fork. Nothing past the positions summed is
// the ledger's.
func TestRecordLedger(t *testing.T) {
	lc := &ledgerChecker{
		checks: [][]int{{4, 1, 4, 9}, {3, 2, 3, 9}, {4, 4, 4, 9}},
		flag:   []int{0, 3, 1, 1},
	}
	l := lc.ledger(0, 0, 3)
	for _, tc := range []struct{ from, fork, n, want int }{
		{0, 0, 2, 0}, {1, 0, 0, 0}, {1, 0, 2, 5}, {2, 0, 1, 7}, {3, 0, 2, 18},
		{1, 1, 1, 1}, {2, 1, 1, 3}, {3, 1, 1, 7}, {3, 2, 0, 0}, {3, 2, 1, 11},
	} {
		if got := l.Skipped(tc.from, tc.fork, tc.n); got != tc.want {
			t.Fatalf("Skipped(%d, %d, %d) = %d, want %d", tc.from, tc.fork, tc.n, got, tc.want)
		}
	}
	if l.lowest != 0 || l.first != 1 {
		t.Fatalf("lowest flag at sublayer %d, first at step %d; want 0 and 1", l.lowest, l.first)
	}
	if l := lc.ledger(0, 2, 3); l.first != 0 {
		t.Fatalf("prompt of 2: first flag at step %d, want 0", l.first)
	}
	lc.flag[2] = 0
	if l := lc.ledger(0, 2, 3); l.lowest != 2 || l.first != 1 {
		t.Fatalf("only a flag in the prompt and one past the end: lowest %d, first %d; want 2 and the step count 1", l.lowest, l.first)
	}

	// A position keeps its lowest flagged sublayer; the LM head has none.
	lc = &ledgerChecker{inner: everyRow{}, checks: [][]int{{0}, {0}, {0}, {0}}, flag: []int{0}, flagged: []bool{false}}
	for _, ref := range []model.LayerRef{{Block: 1, Kind: model.KindUp}, {Block: 0, Kind: model.KindGate}, {Block: 1, Kind: model.KindQ}, {Block: -1, Kind: model.KindLMHead}} {
		lc.CheckLinear(ref, nil, []int{0}, nil, nil)
	}
	if l := lc.ledger(0, 0, 1); l.lowest != 1 || l.first != 0 || l.Skipped(4, 0, 1) != 3 {
		t.Fatalf("lowest %d, first %d, checks %d; want 1, 0, 3", l.lowest, l.first, l.Skipped(4, 0, 1))
	}
}

// everyRow checks and flags every row.
type everyRow struct{}

func (everyRow) Check(_ model.LayerRef, _ model.Weight, pos []int, _, _ []float32, flagged []bool) bool {
	for _, p := range pos {
		flagged[p] = true
	}
	return true
}

// TestForkRule is the fork rule's table: each row is a run of one site
// under one Watch against one record — a campaign's transient baseline
// (depth planes from the prompt's end), its memory-fault baseline (planes
// from position 0), a served prompt's clean decode (no planes), with and
// without a ledger and its flags, and a beam search's — and the resume
// point (-1: the prompt's first position; -2: none, a beam's prompt end)
// and depth it must start at.
func TestForkRule(t *testing.T) {
	m := testModel(10)
	prompt := []int{1, 5, 6, 3, 7}
	const n, P = 10, 5
	s := Defaults(n)
	s.MinNewTokens = n
	record := func(floor int, ledger Checker) *Record {
		st := m.NewState()
		if floor >= 0 {
			st.RecordDepth(floor)
		}
		r, _ := NewRecord(m, st, prompt, s, RecordOpts{Ledger: ledger})
		return r
	}
	var (
		transient      = record(P, nil)
		memory         = record(0, nil)
		served         = record(-1, nil)
		transientL     = record(P, flagAt{-1, -1})
		flaggedDecode  = record(P, flagAt{1, P + 6})
		memoryFlagged  = record(0, flagAt{0, 2})
		servedClean    = record(-1, flagAt{-1, -1})
		servedFlagged  = record(-1, flagAt{2, P + 3})
		servedPromptFl = record(-1, flagAt{2, 2})
	)
	// A decode that stops on EOS after 4 tokens: banned before, forced
	// there by a model hook.
	m.AddHook(func(ref model.LayerRef, pos int, out []float32) {
		if ref.Kind == model.KindLMHead && pos == P+3 {
			out[token.EOS] = 1e4
		}
	})
	s.MinNewTokens = 4
	stopped := record(-1, nil)
	s.MinNewTokens = n
	m.ClearHooks()
	bs := s
	bs.NumBeams = 2
	beam, _ := NewRecord(m, m.NewState(), prompt, bs, RecordOpts{})
	if len(served.Tokens) != n || len(stopped.Tokens) != 4 || len(stopped.Resume) != 5 {
		t.Fatalf("the clean decodes stopped after %d and %d tokens (%d points)", len(served.Tokens), len(stopped.Tokens), len(stopped.Resume))
	}
	seen := served.Tokens[6]
	g0 := slices.Index(served.Tokens, seen)
	unseen := -1
	for tok := range m.Cfg.Vocab {
		if !slices.Contains(served.Tokens, tok) {
			unseen = tok
			break
		}
	}
	if unseen < 0 {
		t.Fatal("the clean decode uses every token")
	}

	up1 := model.LayerRef{Block: 1, Kind: model.KindUp, Expert: -1}     // sublayer 3
	q0 := model.LayerRef{Block: 0, Kind: model.KindQ, Expert: -1}       // sublayer 0
	gate0 := model.LayerRef{Block: 0, Kind: model.KindGate, Expert: -1} // sublayer 1
	head := model.LayerRef{Block: -1, Kind: model.KindLMHead, Expert: -1}
	comp := func(ref model.LayerRef, g int) faults.Site {
		return faults.Site{Fault: faults.Comp1Bit, Layer: ref, GenIter: g}
	}
	mem := faults.Site{Fault: faults.Mem2Bit, Layer: gate0}
	surface := func(sf faults.Surface, g, row int) faults.Site {
		return faults.Site{Fault: faults.Comp1Bit, Surface: sf, Layer: up1, GenIter: g, Row: row}
	}
	// Watches: a campaign's unobserved row, one an ExtraHook or a probe
	// rides (both count clean work and watch every layer), a traced one
	// whose baseline has no capture, site-only and all-layer ABFT; a
	// memory fault's of each; a served request's of a budget.
	unobserved := Watch{MaxNew: n}
	hooked := Watch{MaxNew: n, Counted: true, Whole: true}
	uncaptured := Watch{MaxNew: n, Whole: true}
	siteABFT := Watch{MaxNew: n, Counted: true, Checker: true}
	allABFT := Watch{MaxNew: n, Counted: true, Checker: true, AllLayers: true}
	otherTol := allABFT
	otherTol.Tol = 1e-3
	live := func(w Watch) Watch {
		w.PromptLive = true
		return w
	}
	budget := func(b int) Watch { return Watch{MaxNew: b} }
	checked := func(b int, all bool) Watch { return Watch{MaxNew: b, Checker: true, AllLayers: all} }

	for _, tc := range []struct {
		name         string
		rec          *Record
		site         faults.Site
		w            Watch
		start, depth int
	}{
		{"transient/unobserved", transient, comp(up1, 4), unobserved, 4, 3},
		{"transient/unobserved at sublayer 0", transient, comp(q0, 7), unobserved, 7, 0},
		{"transient/unobserved at the LM head", transient, comp(head, 7), unobserved, 7, -1},
		{"transient/ExtraHook or probe", transient, comp(up1, 4), hooked, 0, -1},
		{"transient/traced without a capture", transient, comp(up1, 4), uncaptured, 4, -1},
		{"transient/site ABFT", transient, comp(up1, 4), siteABFT, 0, 3},
		{"transient/all-layer ABFT without a ledger", transient, comp(up1, 4), allABFT, 0, -1},
		{"transient/all-layer ABFT", transientL, comp(up1, 4), allABFT, 0, 3},
		{"transient/all-layer ABFT, ledger under another tolerance", transientL, comp(up1, 4), otherTol, 0, -1},
		{"transient/all-layer ABFT, clean flag at sublayer 1", flaggedDecode, comp(up1, 4), allABFT, 0, 1},
		{"transient/site ABFT, clean flag at sublayer 1", flaggedDecode, comp(up1, 4), siteABFT, 0, 3},
		{"transient/no planes", served, comp(up1, 4), unobserved, 4, -1},
		{"memory/unobserved", memory, mem, live(unobserved), -1, 1},
		{"memory/on a transient baseline's planes", transient, mem, live(unobserved), -1, -1},
		{"memory/ExtraHook or probe", memory, mem, live(hooked), -1, -1},
		{"memory/site ABFT", memory, mem, live(siteABFT), -1, 1},
		{"memory/all-layer ABFT without a ledger", memory, mem, live(allABFT), -1, -1},
		{"memory/all-layer ABFT, clean flag at sublayer 0", memoryFlagged, mem, live(allABFT), -1, 0},
		{"beam/transient", beam, comp(up1, 4), unobserved, -2, -1},
		{"beam/memory", beam, mem, live(unobserved), -1, -1},
		{"served/linear", served, comp(up1, 4), budget(n), 4, -1},
		{"served/linear, last step", served, comp(up1, n-1), budget(n), n - 1, -1},
		{"served/linear memory", served, faults.Site{Fault: faults.Mem2Bit, Layer: up1}, budget(n), 0, -1},
		{"served/norm", served, surface(faults.SurfaceNorm, 4, 0), budget(n), 0, -1},
		{"served/embed, a decoded token", served, surface(faults.SurfaceEmbed, 0, seen), budget(n), g0, -1},
		{"served/embed, a token never decoded", served, surface(faults.SurfaceEmbed, 0, unseen), budget(n), n - 1, -1},
		{"served/kv", served, surface(faults.SurfaceKV, 6, P+2), budget(n), 6, -1},
		{"served/attn", served, surface(faults.SurfaceAttn, 2, 0), budget(n), 2, -1},
		{"served/reach past an EOS stop", stopped, comp(up1, 7), budget(n), 4, -1},
		{"served/reach before an EOS stop", stopped, comp(up1, 2), budget(n), 2, -1},
		{"served/budget below, reach past it", served, comp(up1, 4), budget(3), 2, -1},
		{"served/budget below, reach inside it", served, comp(up1, 1), budget(3), 1, -1},
		{"served/budget above", served, comp(up1, 4), budget(n + 4), 4, -1},
		{"served/budget above, embed never decoded", served, surface(faults.SurfaceEmbed, 0, unseen), budget(n + 4), n - 1, -1},
		{"served/all-layer ABFT, reach past the flag", servedFlagged, comp(up1, 6), checked(n, true), 3, -1},
		{"served/all-layer ABFT, reach before the flag", servedFlagged, comp(up1, 2), checked(n, true), 2, -1},
		{"served/site ABFT, reach past the flag", servedFlagged, comp(up1, 6), checked(n, false), 3, -1},
		{"served/all-layer ABFT, flag in the prompt only", servedPromptFl, comp(up1, 6), checked(n, true), 6, -1},
		{"served/all-layer ABFT, no flag", servedClean, surface(faults.SurfaceEmbed, 0, unseen), checked(n, true), n - 1, -1},
		{"served/all-layer ABFT, budget below the flag", servedFlagged, comp(up1, 6), checked(2, true), 1, -1},
		{"served/ABFT without a ledger", served, comp(up1, 6), checked(n, true), 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.rec.Fork(tc.site, tc.w)
			if f.From != tc.rec.Prefix || f.Depth != tc.depth {
				t.Fatalf("depth %d, want %d (forks the record's prefix: %v)", f.Depth, tc.depth, f.From == tc.rec.Prefix)
			}
			switch tc.start {
			case -1, -2:
				if f.Prompt != (tc.start == -1) || f.Pos != 0 || f.At.pos != 0 || f.At.sp.s.MaxNewTokens != 0 {
					t.Fatalf("start %+v, want the prompt's %s", f, map[int]string{-1: "first position", -2: "end"}[tc.start])
				}
			default:
				at := f.At
				if f.Prompt || at.g != tc.start || f.Pos != P+tc.start || at.pos != f.Pos || at.sp.s.MaxNewTokens != tc.w.MaxNew {
					t.Fatalf("start at point %d (position %d, budget %d), want point %d under budget %d",
						at.g, f.Pos, at.sp.s.MaxNewTokens, tc.start, tc.w.MaxNew)
				}
			}
		})
	}
}
