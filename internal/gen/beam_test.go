package gen

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// refHyp is one live beam of the oracle.
type refHyp struct {
	st      *model.State
	tokens  []int
	logProb float64
	logits  []float32
}

// continueBeamRef is beam search as it was written before it became a
// Stepper mode, with a decode loop of its own: the oracle the beam
// Stepper is pinned to. Steps counts only the continuation.
func continueBeamRef(m *model.Model, st *model.State, logits []float32, s Settings) Result {
	first := &refHyp{st: st, logits: append([]float32(nil), logits...)}
	live := []*refHyp{first}
	var done []*refHyp
	steps := 0

	for i := 0; i < s.MaxNewTokens && len(live) > 0; i++ {
		type cand struct {
			parent *refHyp
			tok    int
			lp     float64
		}
		var cands []cand
		for _, h := range live {
			masked := maskLogits(h.logits, s, i)
			lsm := tensor.LogSoftmaxRow(masked)
			for _, tok := range topTokens(lsm, s.NumBeams) {
				cands = append(cands, cand{h, tok, h.logProb + lsm[tok]})
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].lp > cands[b].lp })
		if len(cands) > s.NumBeams {
			cands = cands[:s.NumBeams]
		}

		// Pre-fork: a parent whose state is needed by several surviving
		// candidates must be copied before the first candidate advances it.
		counts := make(map[*refHyp]int)
		for _, c := range cands {
			if c.tok != s.StopToken {
				counts[c.parent]++
			}
		}
		forks := make(map[*refHyp][]*model.State)
		for parent, n := range counts {
			for j := 1; j < n; j++ {
				forks[parent] = append(forks[parent], parent.st.Fork())
			}
		}

		var next []*refHyp
		used := make(map[*refHyp]bool)
		for _, c := range cands {
			if c.tok == s.StopToken {
				done = append(done, &refHyp{
					tokens:  append([]int(nil), c.parent.tokens...),
					logProb: c.lp,
				})
				continue
			}
			var hst *model.State
			if !used[c.parent] {
				hst = c.parent.st
				used[c.parent] = true
			} else {
				f := forks[c.parent]
				hst, forks[c.parent] = f[len(f)-1], f[:len(f)-1]
			}
			nh := &refHyp{
				st:      hst,
				tokens:  append(append([]int(nil), c.parent.tokens...), c.tok),
				logProb: c.lp,
			}
			if hst.Pos < m.Cfg.MaxSeq {
				nh.logits = append(nh.logits[:0], hst.DecodeStep(c.tok)...)
				steps++
				next = append(next, nh)
			} else {
				done = append(done, nh)
			}
			if len(next) == s.NumBeams {
				break
			}
		}
		live = next
		// Early exit: if the best finished hypothesis already beats every
		// live one, no live beam can overtake it (log-probs only decrease).
		if best := refBest(done); best != nil && len(live) > 0 {
			allWorse := true
			for _, h := range live {
				if h.logProb > best.logProb {
					allWorse = false
					break
				}
			}
			if allWorse {
				live = nil
			}
		}
	}
	done = append(done, live...)
	best := refBest(done)
	if best == nil {
		return Result{Steps: steps}
	}
	return Result{
		Tokens:  best.tokens,
		LogProb: best.logProb,
		Stopped: best.st == nil, // finished hypotheses carry no state
		Steps:   steps,
	}
}

func refBest(hs []*refHyp) *refHyp {
	var best *refHyp
	for _, h := range hs {
		if best == nil || h.logProb > best.logProb {
			best = h
		}
	}
	return best
}

// oneShot is a hook that counts every (layer, position) it sees and
// negates the first output of block 0's down projection at position pos:
// the first hypothesis that computes pos is struck, and only that one.
func oneShot(calls map[callKey]int, pos int) model.Hook {
	fired := false
	return func(ref model.LayerRef, p int, out []float32) {
		calls[callKey{ref, p}]++
		if !fired && p == pos && ref.Kind == model.KindDown && ref.Block == 0 {
			fired = true
			for i := range out {
				out[i] = -4 * out[i]
			}
		}
	}
}

// sameResult compares two Results field by field, LogProb by its bits.
func sameResult(a, b Result) bool {
	return reflect.DeepEqual(a.Tokens, b.Tokens) && math.Float64bits(a.LogProb) == math.Float64bits(b.LogProb) &&
		a.Steps == b.Steps && a.Stopped == b.Stopped
}

// TestBeamStepperMatchesContinueBeam pins the beam Stepper to the decode
// loop beam search used to run of its own (continueBeamRef): serially
// (GenerateFrom), and as a row of a width-4 loop while greedy rows decode
// beside it. Each run carries a one-shot strike at the second generated
// position, which lands on whichever hypothesis computes that position
// first, so the hypotheses must step in the oracle's order; a hook on the
// row must see each (layer, position) exactly as often as one on the
// model sees it under the oracle. Budgets run from zero to the model's
// MaxSeq, past which hypotheses finish without a step.
func TestBeamStepperMatchesContinueBeam(t *testing.T) {
	cases, stopped, atMaxSeq, struck := 0, 0, 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		m := testModel(seed)
		prompt := []int{1, 3 + int(seed), 5, 2 + int(seed)%4}
		strikePos := len(prompt) + 1
		for _, beams := range []int{2, 3, 4, 6} {
			for _, maxNew := range []int{0, 1, 5, 12, m.Cfg.MaxSeq} {
				for _, minNew := range []int{0, 3} {
					s := Defaults(maxNew)
					s.NumBeams, s.MinNewTokens = beams, minNew

					wantCalls := map[callKey]int{}
					m.AddHook(oneShot(wantCalls, strikePos))
					st := m.NewState()
					want := continueBeamRef(m, st, st.Prefill(prompt), s)
					m.ClearHooks()

					serialCalls := map[callKey]int{}
					m.AddHook(oneShot(serialCalls, strikePos))
					st = m.NewState()
					got := GenerateFrom(m, st, st.Prefill(prompt), s)
					m.ClearHooks()
					if !sameResult(got, want) || !reflect.DeepEqual(serialCalls, wantCalls) {
						t.Fatalf("seed %d beams %d maxNew %d minNew %d: serial %+v, oracle %+v (hooks equal: %v)",
							seed, beams, maxNew, minNew, got, want, reflect.DeepEqual(serialCalls, wantCalls))
					}

					// The beam row, owner 0, among greedy rows, owners 1 on.
					l := NewLoop[int](m, 4)
					rows := map[int]Result{}
					rowCalls := map[callKey]int{}
					hook := oneShot(rowCalls, strikePos)
					m.AddHook(hook) // the prompt's prefill, which Admit takes done
					st = m.NewState()
					logits := st.Prefill(prompt)
					m.ClearHooks()
					if sq := l.Admit(st, logits, s, Arm{Observers: model.Observers{Hooks: []model.Hook{hook}}}, 0); sq.Done() {
						rows[0] = sq.Result()
						l.Release(sq)
					}
					greedy := [][]int{{1, 7, 2}, {1, 9, 4, 11, 3}, {1, 12}}
					for j, p := range greedy {
						l.AdmitPrompt(nil, -1, p, NewStepper(Defaults(4+3*j)), Arm{}, 1+j)
					}
					drain(l, rows)
					if !sameResult(rows[0], want) || !reflect.DeepEqual(rowCalls, wantCalls) {
						t.Fatalf("seed %d beams %d maxNew %d minNew %d: row %+v, oracle %+v (hooks equal: %v)",
							seed, beams, maxNew, minNew, rows[0], want, reflect.DeepEqual(rowCalls, wantCalls))
					}
					for j, p := range greedy {
						if w := Generate(m, p, Defaults(4+3*j)); !reflect.DeepEqual(rows[1+j].Tokens, w.Tokens) {
							t.Fatalf("greedy row %d beside a beam decoded %v, want %v", j, rows[1+j].Tokens, w.Tokens)
						}
					}
					st = m.NewState()
					if !sameResult(GenerateFrom(m, st, st.Prefill(prompt), s), want) {
						struck++
					}
					cases++
					if want.Stopped {
						stopped++
					}
					if len(prompt)+len(want.Tokens) >= m.Cfg.MaxSeq {
						atMaxSeq++
					}
				}
			}
		}
	}
	if cases != 240 || stopped == 0 || atMaxSeq == 0 || struck == 0 {
		t.Fatalf("%d cases, %d ended on StopToken, %d ran into MaxSeq, %d changed by the strike; the sweep would not cover each",
			cases, stopped, atMaxSeq, struck)
	}
}
