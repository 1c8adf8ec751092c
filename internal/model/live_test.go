package model

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/numerics"
)

// countedWeight counts the rows it multiplies; safe for a sharded pass's
// concurrent rows.
type countedWeight struct {
	Weight
	rows *atomic.Int64
}

func (w countedWeight) Forward(out, x []float32) {
	w.rows.Add(1)
	w.Weight.Forward(out, x)
}

// layerCounts counts, per layer, the rows an observer is shown; safe for
// a sharded prefill's concurrent checker calls.
type layerCounts struct {
	mu   sync.Mutex
	rows map[LayerRef]int
}

func (c *layerCounts) add(ref LayerRef, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rows == nil {
		c.rows = map[LayerRef]int{}
	}
	c.rows[ref] += n
}

func (c *layerCounts) CheckLinear(ref LayerRef, _ Weight, pos []int, _, _ []float32) {
	c.add(ref, len(pos))
}

func (c *layerCounts) hook(ref LayerRef, _ int, _ []float32) { c.add(ref, 1) }

// TestPrefillComputesOnlyReadRows pins the prefill's liveness rule
// (State.live): where nothing observes a prompt's positions but the last,
// they stop at the last block's K/V write, and nothing anyone reads moves
// — logits, every K/V row, the snapshot — against SetSequentialPrefill,
// which runs every position whole. It covers dense and MoE, threads 1 and
// 3 (a 120-row prompt shards, a 7-row one does not), a fresh state, a
// mid-context state and depth forks whose prompts split into a run
// entering at the fork's sublayer and one entering at the embedding, with
// no observers and under a strike on the last block's K projection. Under
// a hook, an attention hook, a checker or an expert trace every position
// runs whole: each observer is shown what the per-token reference shows
// it, n rows at every last-block layer; depth planes keep every position
// they record whole.
func TestPrefillComputesOnlyReadRows(t *testing.T) {
	for _, moe := range []bool{false, true} {
		spec := depthSpec(moe)
		spec.Config.MaxSeq = 160
		last := spec.Config.NBlocks - 1
		vocab := spec.Config.Vocab
		// The forks' prefix records depth planes and no expert trace: a
		// fork of a traced prefix carries its trace, which keeps every row.
		rec := MustBuild(spec).NewState()
		rec.RecordDepth(0)
		rec.Prefill(promptOf(120, vocab))
		snap := rec.Snapshot()

		type start struct {
			name  string
			fork  bool
			state func(m *Model) (*State, []int)
		}
		fresh := func(n int) func(m *Model) (*State, []int) {
			return func(m *Model) (*State, []int) { return m.NewState(), promptOf(n, vocab) }
		}
		starts := []start{
			{"fresh/n=7", false, fresh(7)},
			{"fresh/n=120", false, fresh(120)},
			{"mid-context", false, func(m *Model) (*State, []int) {
				st := m.NewState()
				st.Prefill(promptOf(40, vocab))
				p := promptOf(70, vocab)
				for i := range p {
					p[i] = (p[i] + 5) % vocab
				}
				return st, p
			}},
		}
		for _, from := range []int{1, 2 * last} {
			starts = append(starts, start{fmt.Sprintf("depth-fork/from=%d", from), true, func(m *Model) (*State, []int) {
				p := promptOf(120, vocab)
				p[60] = (p[60] + 1) % vocab
				return snap.ForkDepth(m, nil, 0, from), p
			}})
		}

		// An observed variant arms st and returns the rows the last block's
		// Q projection must run for a prompt of n positions.
		type variant struct {
			name   string
			planes bool
			arm    func(st *State, c *layerCounts, n int) int64
		}
		variants := []variant{
			{"unobserved", false, func(*State, *layerCounts, int) int64 { return 1 }},
			{"strike", false, func(st *State, _ *layerCounts, _ int) int64 {
				w := st.m.Blocks[last].Wk.(*Dense)
				st.Strike = &Strike{Ref: LayerRef{last, KindK, -1}, W: w.Struck(1, 2, []int{13, 14})}
				return 1
			}},
			{"hook", false, func(st *State, c *layerCounts, n int) int64 { st.Hooks = []Hook{c.hook}; return int64(n) }},
			{"attn-hook", false, func(st *State, c *layerCounts, n int) int64 { st.AttnHooks = []Hook{c.hook}; return int64(n) }},
			{"checker", false, func(st *State, c *layerCounts, n int) int64 { st.Checker = c; return int64(n) }},
			{"expert-trace", false, func(st *State, _ *layerCounts, n int) int64 { st.EnableExpertTrace(); return int64(n) }},
			{"planes", true, func(st *State, _ *layerCounts, n int) int64 { st.RecordDepth(st.Pos); return int64(n) }},
			{"planes-from-half", true, func(st *State, _ *layerCounts, n int) int64 {
				st.RecordDepth(st.Pos + n/2)
				return int64(n - n/2)
			}},
		}

		// outcome is one prefill's results and what it ran.
		type outcome struct {
			logits      []float32
			st          *State
			shown       *layerCounts
			n           int
			qRows, want int64
		}
		run := func(s start, v variant, threads int, sequential bool) outcome {
			m := MustBuild(spec)
			m.SetThreads(threads)
			m.SetSequentialPrefill(sequential)
			var qRows atomic.Int64
			m.Blocks[last].Wq = countedWeight{m.Blocks[last].Wq, &qRows}
			st, prompt := s.state(m)
			o := outcome{st: st, shown: &layerCounts{}, n: len(prompt)}
			o.want = v.arm(st, o.shown, o.n)
			qRows.Store(0)
			o.logits = slices.Clone(st.Prefill(prompt))
			o.qRows = qRows.Load()
			return o
		}
		for _, s := range starts {
			for _, v := range variants {
				if v.planes && s.fork {
					continue // a depth fork records nothing
				}
				ref := run(s, v, 1, true)
				for _, threads := range []int{1, 3} {
					name := fmt.Sprintf("moe=%v/%s/%s/threads=%d", moe, s.name, v.name, threads)
					got := run(s, v, threads, false)
					sameBits(t, name+": logits", got.logits, ref.logits)
					if err := statesEqual(ref.st, got.st); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(ref.st.Snapshot(), got.st.Snapshot()) {
						t.Fatalf("%s: snapshot differs from the per-token reference's", name)
					}
					if s.fork && got.st.ExpertTrace == nil && got.st.DepthMatched() != 60 {
						t.Fatalf("%s: %d positions matched the prefix, want 60", name, got.st.DepthMatched())
					}
					if got.qRows != got.want {
						t.Fatalf("%s: the last block's Q projection ran %d rows, want %d", name, got.qRows, got.want)
					}
					// Without a hook the LM head runs on the last position
					// only, whatever else observes: compare the blocks.
					for _, o := range []outcome{ref, got} {
						maps.DeleteFunc(o.shown.rows, func(l LayerRef, _ int) bool { return l.Kind == KindLMHead })
					}
					if !maps.Equal(got.shown.rows, ref.shown.rows) {
						t.Fatalf("%s: observer shown rows per layer %v, per-token reference %v", name, got.shown.rows, ref.shown.rows)
					}
					for l, rows := range got.shown.rows {
						if l.Block == last && l.Expert < 0 && rows != got.n {
							t.Fatalf("%s: %v shown %d rows, want %d", name, l, rows, got.n)
						}
					}
				}
			}
		}
	}
}

// BenchmarkPrefill times one 120-token prefill of the benchmark model's
// shape (64 wide, 4 blocks, ff 176) on a reset state at threads 1 and 2,
// unobserved — its positions before the last stop at the last block's
// K/V write — and under a counting checker, which keeps every position
// whole.
func BenchmarkPrefill(b *testing.B) {
	m := MustBuild(Spec{Config: StandardConfig("bench", 64, numerics.BF16), Family: QwenS, Seed: 8})
	prompt := promptOf(120, m.Cfg.Vocab)
	for _, threads := range []int{1, 2} {
		for _, checked := range []bool{false, true} {
			name := fmt.Sprintf("threads=%d/unobserved", threads)
			if checked {
				name = fmt.Sprintf("threads=%d/checker", threads)
			}
			b.Run(name, func(b *testing.B) {
				m.SetThreads(threads)
				defer m.SetThreads(0)
				st := m.NewState()
				for i := 0; i < b.N; i++ {
					st.Reset()
					if checked {
						st.Checker = &countingChecker{}
					}
					st.Prefill(prompt)
				}
			})
		}
	}
}
