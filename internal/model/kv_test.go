package model

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestKCacheLayoutAcrossForks holds every path that writes, moves or
// copies a K plane — each with its own row capacity, so each converts
// between column strides — to a state run token by token: Prefill and
// DecodeStep; Prefix.ForkInto at positions inside and at the end of a
// prefix whose capacity is padded; ForkDepth at a matched and an
// unmatched position; ForkAtInto and Fork of a live fork and of a state
// with no prefix, into fresh and recycled states; a Snapshot of a fork and
// forks of it; SetKV on a shared row, which privatizes, and on an own
// one; own rows growing 16 → 32 → 64 → past MaxSeq's 90 to 96; and Reset
// recycling. On every path KVAt at every (block, position, column), K and
// V, and every logits vector must equal the reference's bits; dense and
// MoE.
func TestKCacheLayoutAcrossForks(t *testing.T) {
	for _, moe := range []bool{false, true} {
		spec := depthSpec(moe)
		spec.Config.MaxSeq = 90
		m := MustBuild(spec)
		t.Run(map[bool]string{false: "dense", true: "moe"}[moe], func(t *testing.T) { kCacheLayoutCase(t, m) })
	}
}

func kCacheLayoutCase(t *testing.T, m *Model) {
	cfg := &m.Cfg
	const end = 80
	seq := promptOf(end, cfg.Vocab)
	fresh := func() *State {
		st := m.NewState()
		if cfg.IsMoE() {
			st.EnableExpertTrace()
		}
		return st
	}
	// tokenwise runs toks one DecodeStep at a time, calling strike (when
	// set) on the state once it stands at position at, and returns the
	// state and the logits after each position.
	tokenwise := func(toks []int, at int, strike func(*State)) (*State, [][]float32) {
		st := fresh()
		var logits [][]float32
		for _, tok := range toks {
			if st.Pos == at && strike != nil {
				strike(st)
			}
			logits = append(logits, slices.Clone(st.DecodeStep(tok)))
		}
		return st, logits
	}
	ref, want := tokenwise(seq, -1, nil)

	sameCache := func(label string, st, ref *State) {
		t.Helper()
		for bi := 0; bi < cfg.NBlocks; bi++ {
			for _, kind := range []LayerKind{KindK, KindV} {
				r := LayerRef{bi, kind, -1}
				for pos := 0; pos < st.Pos; pos++ {
					for col := 0; col < cfg.DModel; col++ {
						got, _ := st.KVAt(r, pos, col)
						w, _ := ref.KVAt(r, pos, col)
						if math.Float32bits(got) != math.Float32bits(w) {
							t.Fatalf("%s: %v (%d, %d) = %g, token by token %g", label, r, pos, col, got, w)
						}
					}
				}
			}
		}
	}
	// decodeTo steps st through toks up to position n, holding each
	// logits vector to want's, then its cache to ref's.
	decodeTo := func(label string, st *State, toks []int, n int, ref *State, want [][]float32) {
		t.Helper()
		for p := st.Pos; p < n; p++ {
			sameBits(t, fmt.Sprintf("%s: logits at %d", label, p), st.DecodeStep(toks[p]), want[p])
		}
		sameCache(label, st, ref)
	}

	// Prefill, then DecodeStep.
	full := fresh()
	sameBits(t, "prefill logits", full.Prefill(seq[:37]), want[36])
	sameCache("prefill", full, ref)
	decodeTo("prefill + decode", full, seq, end, ref, want)

	// A prefix of 40 positions: its K planes hold 48.
	src := fresh()
	src.RecordDepth(0)
	src.Prefill(seq[:40])
	snap := src.Snapshot()
	if snap.ld != 48 {
		t.Fatalf("a prefix of %d positions has K row capacity %d, want 48", snap.Pos(), snap.ld)
	}

	// ForkInto at every kind of position; own rows grow by doubling, a
	// multiple of sixteen each time, and past MaxSeq to its padding.
	for _, q := range []int{0, 1, 16, 39, 40} {
		f := snap.ForkInto(m, nil, q)
		sameCache(fmt.Sprintf("fork at %d", q), f, ref)
		var grew []int
		for p := q; p < end; p++ {
			sameBits(t, fmt.Sprintf("fork at %d: logits at %d", q, p), f.DecodeStep(seq[p]), want[p])
			if len(grew) == 0 || grew[len(grew)-1] != f.rows {
				grew = append(grew, f.rows)
			}
		}
		sameCache(fmt.Sprintf("fork at %d, decoded", q), f, ref)
		wantGrew := map[int][]int{0: {16, 32, 64, 96}, 40: {16, 32, 64}}[q]
		if wantGrew != nil && !slices.Equal(grew, wantGrew) {
			t.Fatalf("fork at %d: own rows grew %v, want %v", q, grew, wantGrew)
		}
	}

	// ForkDepth, matched (every clean sublayer below from skipped while
	// the tokens are the prefix's) and unmatched (a different token at the
	// fork's position).
	other := slices.Clone(seq)
	other[20] = (other[20] + 1) % cfg.Vocab
	refOther, wantOther := tokenwise(other, -1, nil)
	for from := 1; from < 2*cfg.NBlocks; from++ {
		for _, pos := range []int{0, 20} {
			f := snap.ForkDepth(m, nil, pos, from)
			decodeTo(fmt.Sprintf("depth fork at %d, sublayer %d", pos, from), f, seq, end, ref, want)
			if f.DepthMatched() != 40-pos {
				t.Fatalf("depth fork at %d, sublayer %d: %d matched positions, want %d", pos, from, f.DepthMatched(), 40-pos)
			}
		}
		f := snap.ForkDepth(m, nil, 20, from)
		decodeTo(fmt.Sprintf("unmatched depth fork, sublayer %d", from), f, other, end, refOther, wantOther)
		if f.DepthMatched() != 0 {
			t.Fatalf("unmatched depth fork, sublayer %d: %d matched positions", from, f.DepthMatched())
		}
	}

	// ForkAtInto and Fork of a live fork (shared rows and own) and of a
	// state with no prefix, fresh and into a recycled state whose own
	// rows are narrower.
	live := snap.ForkInto(m, nil, 30)
	decodeTo("live fork", live, seq, 60, ref, want)
	narrow := snap.ForkInto(m, nil, 39)
	narrow.DecodeStep(seq[39])
	for _, dst := range []*State{nil, narrow} {
		g := live.ForkAtInto(m, dst, 45)
		sameCache("ForkAtInto of a fork", g, ref)
		decodeTo("ForkAtInto of a fork, decoded", g, seq, end, ref, want)
	}
	h := live.Fork()
	sameCache("Fork of a fork", h, ref)
	decodeTo("Fork of a fork, decoded", h, seq, end, ref, want)
	own := fresh()
	own.Prefill(seq[:50])
	g := own.ForkAtInto(m, nil, 33)
	sameCache("ForkAtInto of an unshared state", g, ref)
	decodeTo("ForkAtInto of an unshared state, decoded", g, seq, end, ref, want)

	// A Snapshot of a fork — 30 shared positions, 30 own — and forks of it.
	snap2 := live.Snapshot()
	for _, q := range []int{12, 30, 47, 60} {
		f := snap2.ForkInto(m, nil, q)
		decodeTo(fmt.Sprintf("fork at %d of a fork's snapshot", q), f, seq, end, ref, want)
	}

	// SetKV on a shared K row privatizes the fork; on an own row it does
	// not. The reference takes the same writes at the same positions.
	struck := LayerRef{1, KindK, -1}
	strike := func(st *State) {
		for _, at := range [][2]int{{7, 3}, {38, cfg.DModel - 1}, {0, 0}} {
			v, _ := st.KVAt(struck, at[0], at[1])
			st.SetKV(struck, at[0], at[1], -4*v-1)
		}
	}
	refStruck, wantStruck := tokenwise(seq, 40, strike)
	f := snap.ForkInto(m, nil, 40)
	strike(f)
	if f.base != nil {
		t.Fatal("SetKV on a shared row must privatize the fork")
	}
	sameCache("privatized fork", f, refStruck)
	decodeTo("privatized fork, decoded", f, seq, end, refStruck, wantStruck)
	ownStrike := func(st *State) {
		v, _ := st.KVAt(struck, 44, 5)
		st.SetKV(struck, 44, 5, -4*v-1)
	}
	refOwn, wantOwn := tokenwise(seq, 50, ownStrike)
	f = snap.ForkInto(m, nil, 40)
	decodeTo("fork before an own-row strike", f, seq, 50, ref, want)
	ownStrike(f)
	if f.base != snap {
		t.Fatal("SetKV on an own row must not privatize the fork")
	}
	decodeTo("fork after an own-row strike", f, seq, end, refOwn, wantOwn)

	// Reset recycling, and a fork into a state that ran on.
	full.Reset()
	sameBits(t, "recycled prefill logits", full.Prefill(seq[:33]), want[32])
	decodeTo("recycled state", full, seq, 70, ref, want)
	f = snap.ForkInto(m, full, 20)
	decodeTo("fork into a recycled state", f, seq, end, ref, want)
}
