package faults_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/abft"
	. "repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// paramHash hashes every parameter m stores — embedding table, norm
// gains, every linear weight and the LM head — bit for bit.
func paramHash(m *model.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(bits uint64) {
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	vec := func(v []float32) {
		for _, x := range v {
			put(uint64(math.Float32bits(x)))
		}
	}
	weight := func(w model.Weight) {
		for r := 0; r < w.In(); r++ {
			for c := 0; c < w.Out(); c++ {
				put(math.Float64bits(w.Get(r, c)))
			}
		}
	}
	vec(m.Embed.Data)
	vec(m.FinalNorm)
	for _, blk := range m.Blocks {
		vec(blk.AttnNorm)
		vec(blk.MLPNorm)
	}
	for _, li := range m.LinearLayers() {
		weight(li.Weight)
	}
	weight(m.LMHead)
	return h.Sum64()
}

// flipStored is the oracle a strike is pinned to: it writes site's fault
// into m's own parameter storage. m must be a deep clone nothing else
// reads.
func flipStored(t *testing.T, m *model.Model, site Site) {
	t.Helper()
	flip := func(p *float32) {
		*p = float32(numerics.FlipBits(numerics.FP32, float64(*p), site.Bits...))
	}
	switch site.Surface {
	case SurfaceNorm:
		g, err := m.Norm(site.Layer)
		if err != nil {
			t.Fatal(err)
		}
		flip(&g[site.Col])
	case SurfaceEmbed:
		flip(&m.Embed.Row(site.Row)[site.Col])
	default:
		w, err := m.Layer(site.Layer)
		if err != nil {
			t.Fatal(err)
		}
		w.(interface {
			FlipBits(r, c int, bits []int) func()
		}).FlipBits(site.Row, site.Col, site.Bits)
	}
}

// overlayRun is everything one inference shows: the logits of every
// position, the KV cache, the expert trace, and the checker's verdicts.
type overlayRun struct {
	logits [][]float32
	kv     []uint32
	trace  [][]int
	stats  abft.Stats
	events string
}

// diff reports the first difference, bit for bit ("" when none).
func (a *overlayRun) diff(b *overlayRun) string {
	if len(a.logits) != len(b.logits) {
		return fmt.Sprintf("%d vs %d positions", len(a.logits), len(b.logits))
	}
	for p := range a.logits {
		for i := range a.logits[p] {
			if math.Float32bits(a.logits[p][i]) != math.Float32bits(b.logits[p][i]) {
				return fmt.Sprintf("logits[%d][%d] %g vs %g", p, i, a.logits[p][i], b.logits[p][i])
			}
		}
	}
	switch {
	case !reflect.DeepEqual(a.kv, b.kv):
		return "KV cache"
	case !reflect.DeepEqual(a.trace, b.trace):
		return fmt.Sprintf("expert trace %v vs %v", a.trace, b.trace)
	case a.stats != b.stats:
		return fmt.Sprintf("checker stats %+v vs %+v", a.stats, b.stats)
	case a.events != b.events:
		return fmt.Sprintf("checker events %s vs %s", a.events, b.events)
	}
	return ""
}

// overlayPrompt, then greedy decode to overlayMaxNew tokens.
var overlayPrompt = []int{5, 9, 17, 4, 12, 7}

const overlayMaxNew = 8

// finish records a finished state's KV cache and expert trace, and the
// checker's verdicts.
func (r *overlayRun) finish(m *model.Model, st *model.State, ck *abft.Checker) {
	for b := 0; b < m.Cfg.NBlocks; b++ {
		for _, kind := range []model.LayerKind{model.KindK, model.KindV} {
			for pos := 0; pos < st.Pos; pos++ {
				for c := 0; c < m.Cfg.DModel; c++ {
					v, _ := st.KVAt(model.LayerRef{Block: b, Kind: kind, Expert: -1}, pos, c)
					r.kv = append(r.kv, math.Float32bits(v))
				}
			}
		}
	}
	r.trace = st.ExpertTrace
	if ck != nil {
		r.stats = ck.Stats()
		r.events = fmt.Sprintf("%+v", ck.Events())
	}
}

// runModel runs the prompt through Prefill and decodes greedily with
// DecodeStep, on a state of m carrying strike and ck.
func runModel(m *model.Model, strike *model.Strike, ck *abft.Checker) *overlayRun {
	st := m.NewState()
	st.Strike = strike
	if ck != nil {
		st.Checker = ck
	}
	if m.Cfg.IsMoE() {
		st.EnableExpertTrace()
	}
	r := &overlayRun{}
	logits := st.Prefill(overlayPrompt)
	for i := 0; ; i++ {
		r.logits = append(r.logits, append([]float32(nil), logits...))
		if i == overlayMaxNew {
			break
		}
		logits = st.DecodeStep(tensor.Argmax(logits))
	}
	r.finish(m, st, ck)
	return r
}

// runRow feeds the prompt and the greedy decode one token per Batch.Step,
// as a row carrying strike and ck, stacked with a clean row on a state of
// its own.
func runRow(m *model.Model, strike *model.Strike, ck *abft.Checker) *overlayRun {
	st, other := m.NewState(), m.NewState()
	if m.Cfg.IsMoE() {
		st.EnableExpertTrace()
	}
	row := &model.DecodeRow{St: st, Logits: make([]float32, m.Cfg.Vocab)}
	st.Strike = strike
	if ck != nil {
		st.Checker = ck
	}
	clean := &model.DecodeRow{St: other, Logits: make([]float32, m.Cfg.Vocab)}
	bt := m.NewBatch(2)
	r := &overlayRun{}
	for pos := 0; pos < len(overlayPrompt)+overlayMaxNew; pos++ {
		if pos < len(overlayPrompt) {
			row.Tok = overlayPrompt[pos]
		} else {
			row.Tok = tensor.Argmax(row.Logits)
		}
		clean.Tok = overlayPrompt[pos%len(overlayPrompt)]
		bt.Step([]*model.DecodeRow{clean, row})
		if pos >= len(overlayPrompt)-1 {
			r.logits = append(r.logits, append([]float32(nil), row.Logits...))
		}
	}
	r.finish(m, st, ck)
	return r
}

// overlaySites lists a strike on every weight-resident surface of m:
// every linear kind of a block (on MoE the router and the three of an
// expert the clean run routes to), the three norm kinds, and an embedding
// row the clean run feeds and one it never does. Linear strikes flip the
// highest exponent bit below the sign, so they move the output.
func overlaySites(m *model.Model) []Site {
	clean := runModel(m, nil, nil)
	fed := map[int]bool{}
	for _, tok := range overlayPrompt {
		fed[tok] = true
	}
	for _, l := range clean.logits {
		fed[tensor.Argmax(l)] = true
	}
	unfed := 0
	for fed[unfed] {
		unfed++
	}
	expert := -1
	if clean.trace != nil {
		expert = clean.trace[1][0]
	}
	var sites []Site
	seen := map[model.LayerKind]bool{}
	for _, li := range m.LinearLayers() {
		if li.Ref.Block != 1 || seen[li.Ref.Kind] || (li.Ref.Expert >= 0 && li.Ref.Expert != expert) {
			continue
		}
		seen[li.Ref.Kind] = true
		nb := li.Weight.StorageBits()
		sites = append(sites, Site{Fault: Mem2Bit, Layer: li.Ref,
			Row: 3 % li.Weight.In(), Col: 5 % li.Weight.Out(), Bits: []int{1, nb - 2}})
	}
	for _, ref := range []model.LayerRef{
		{Block: 0, Kind: model.KindAttnNorm, Expert: -1},
		{Block: 2, Kind: model.KindMLPNorm, Expert: -1},
		{Block: -1, Kind: model.KindFinalNorm, Expert: -1},
	} {
		sites = append(sites, Site{Fault: Mem2Bit, Surface: SurfaceNorm, Layer: ref, Col: 3, Bits: []int{30}})
	}
	embed := model.LayerRef{Block: -1, Kind: model.KindEmbed, Expert: -1}
	for _, row := range []int{overlayPrompt[1], unfed} {
		sites = append(sites, Site{Fault: Mem2Bit, Surface: SurfaceEmbed, Layer: embed, Row: row, Col: 2, Bits: []int{30}})
	}
	return sites
}

// TestStrikeMatchesStorageFlip is the overlay's golden: for every
// weight-resident surface, storage datatype (BF16, FP16, FP32, INT4,
// INT8), dense and MoE, and ABFT off, site-only and all-layer under
// detect, correct and correct-skip, an inference reading New's Strike —
// on the model's own slot through Prefill and DecodeStep, and as a
// Batch.Step row stacked with a clean one — shows exactly what the same
// inference shows over a deep clone whose storage was flipped: every
// position's logits, the KV cache, the expert trace and the checker's
// stats and events, bit for bit. The shared model's parameters never
// change.
func TestStrikeMatchesStorageFlip(t *testing.T) {
	type variant struct {
		name string
		m    *model.Model
	}
	var variants []variant
	for _, experts := range []int{0, 4} {
		base := NewTestModel(t, experts)
		kind := "dense"
		if experts > 0 {
			kind = "moe"
		}
		for _, dt := range []numerics.DType{numerics.BF16, numerics.FP16, numerics.FP32} {
			m, err := model.WithDType(base, dt)
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, variant{fmt.Sprintf("%s/%v", kind, dt), m})
		}
		for _, bits := range []int{4, 8} {
			m, err := quant.QuantizeModel(base, bits)
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, variant{fmt.Sprintf("%s/int%d", kind, bits), m})
		}
	}
	protections := map[string]*abft.Protection{"off": nil}
	for _, pol := range []mitigate.Policy{mitigate.PolicyDetect, mitigate.PolicyCorrect, mitigate.PolicyCorrectOrSkip} {
		protections["site/"+pol.String()] = &abft.Protection{Policy: pol}
		protections["all/"+pol.String()] = &abft.Protection{Policy: pol, AllLayers: true}
	}

	for _, v := range variants {
		stored := paramHash(v.m)
		tables := map[bool]*abft.Table{}
		for _, p := range protections {
			if p != nil && tables[p.AllLayers] == nil {
				tables[p.AllLayers] = p.Table(v.m)
			}
		}
		for _, site := range overlaySites(v.m) {
			oracle := v.m.Clone()
			flipStored(t, oracle, site)
			moved := false
			for pname, p := range protections {
				checker := func() *abft.Checker {
					if p == nil {
						return nil
					}
					var at []model.LayerRef
					if site.Surface == SurfaceLinear {
						at = []model.LayerRef{site.Layer}
					}
					ck, err := p.Checker(tables[p.AllLayers], at...)
					if err != nil {
						t.Fatal(err)
					}
					return ck
				}
				want := runModel(oracle, nil, checker())
				inj, err := New(v.m, site, len(overlayPrompt))
				if err != nil {
					t.Fatal(err)
				}
				if !inj.Fired || inj.Strike == nil {
					t.Fatalf("%s %v: fired %v strike %v", v.name, site, inj.Fired, inj.Strike)
				}
				slot := runModel(v.m, inj.Strike, checker())
				row := runRow(v.m, inj.Strike, checker())
				for side, got := range map[string]*overlayRun{"serial": slot, "batch row": row} {
					if d := got.diff(want); d != "" {
						t.Fatalf("%s %v abft %s, %s vs storage flip: %s", v.name, site, pname, side, d)
					}
				}
				if pname == "off" {
					moved = want.diff(runModel(v.m, nil, nil)) != ""
				}
			}
			if unfed := site.Surface == SurfaceEmbed && site.Row != overlayPrompt[1]; moved == unfed {
				t.Errorf("%s %v: changed the inference %v — want %v", v.name, site, moved, !unfed)
			}
			if got := paramHash(v.m); got != stored {
				t.Fatalf("%s %v: the shared model's parameters changed", v.name, site)
			}
		}
	}
}

// TestStrikeRowsShareNoWrite: eight rows in one four-thread Batch.Step,
// each reading a different weight-resident strike, while another
// goroutine generates under each strike in turn on a weight-sharing clone
// of the same parent. Under -race nothing writes the parent's parameters, and every
// row decodes exactly what it decodes alone.
func TestStrikeRowsShareNoWrite(t *testing.T) {
	parent := NewTestModel(t, 4)
	stored := paramHash(parent)
	// Four linear layers, the three norm kinds and a fed embedding row.
	all := overlaySites(parent)
	sites := []Site{all[0], all[2], all[4], all[6]}
	for _, s := range all {
		if s.Surface != SurfaceLinear && len(sites) < 8 {
			sites = append(sites, s)
		}
	}

	decode := func(m *model.Model, strikes []*model.Strike) [][]int {
		rows := make([]*model.DecodeRow, len(strikes))
		for i, s := range strikes {
			rows[i] = &model.DecodeRow{St: m.NewState(), Logits: make([]float32, m.Cfg.Vocab)}
			rows[i].St.Strike = s
		}
		bt := m.NewBatch(len(rows))
		toks := make([][]int, len(rows))
		for pos := 0; pos < len(overlayPrompt)+overlayMaxNew; pos++ {
			for i, r := range rows {
				r.Tok = overlayPrompt[min(pos, len(overlayPrompt)-1)]
				if pos >= len(overlayPrompt) {
					r.Tok = tensor.Argmax(r.Logits)
					toks[i] = append(toks[i], r.Tok)
				}
			}
			bt.Step(rows)
		}
		return toks
	}
	strikes := make([]*model.Strike, len(sites))
	solo := make([][]int, len(sites))
	for i, site := range sites {
		inj, err := New(parent, site, len(overlayPrompt))
		if err != nil {
			t.Fatal(err)
		}
		strikes[i] = inj.Strike
		solo[i] = decode(parent, strikes[i:i+1])[0]
	}

	parent.SetThreads(4)
	defer parent.SetThreads(0)
	clone := parent.CloneShared()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, site := range sites {
			inj, err := New(clone, site, len(overlayPrompt))
			if err != nil {
				t.Error(err)
				return
			}
			st := clone.NewState()
			st.Observers = inj.Observers()
			gen.GenerateFrom(clone, st, st.Prefill(overlayPrompt), gen.Defaults(overlayMaxNew))
		}
	}()
	batched := decode(parent, strikes)
	wg.Wait()

	for i := range sites {
		if !reflect.DeepEqual(batched[i], solo[i]) {
			t.Errorf("%v: batched %v, alone %v", sites[i], batched[i], solo[i])
		}
	}
	if got := paramHash(parent); got != stored {
		t.Fatal("a strike wrote the parent's parameters")
	}
}
