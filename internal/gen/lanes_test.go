package gen_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/abft"
	"repro/internal/gen"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
)

// TestLoopShardedMatchesContinueGreedy runs two loops of width 4 over one
// model, each on its own goroutine — the lanes a thread budget buys —
// drawing twelve sequences of different lengths and budgets from one
// queue and recycling them through their rows. Every sequence is struck
// and observed by a hook, an attention hook and an all-layer correcting
// ABFT checker of its own, the checkers reading one shared abft.Table.
// Every sequence must decode what GenerateFrom decodes under the same
// observers registered on the model, its hooks must fire exactly as
// often, and its checker must count, flag and repair the same; the race
// detector checks that the lanes share nothing they write.
func TestLoopShardedMatchesContinueGreedy(t *testing.T) {
	m := model.MustBuild(model.Spec{Config: model.Config{
		Name: "gen-lanes", Vocab: 24, DModel: 16, NHeads: 2, NBlocks: 2,
		FFHidden: 24, MaxSeq: 48, Eps: 1e-5, DType: numerics.FP32,
		RopeTheta: 10000,
	}, Family: model.LlamaS, Seed: 8})
	prot := abft.Protection{AllLayers: true, Policy: mitigate.PolicyCorrect}
	table := prot.Table(m)
	const seqs, lanes, width = 12, 2, 4
	prompt := func(i int) []int {
		p := make([]int, 2+i%5)
		for j := range p {
			p[j] = 1 + (i*3+j*5)%(m.Cfg.Vocab-1)
		}
		return p
	}
	settings := func(i int) gen.Settings {
		s := gen.Defaults(3 + (i*7)%11)
		s.MinNewTokens = s.MaxNewTokens / 2
		return s
	}
	// observers builds sequence i's own: a hook that strikes its second
	// decoded position, counters behind both hook slots, and a checker.
	type seen struct {
		hook, attn int
		checker    *abft.Checker
	}
	observers := func(i int, c *seen) gen.Arm {
		strikePos := len(prompt(i)) + 1
		var err error
		if c.checker, err = prot.Checker(table); err != nil {
			t.Fatal(err)
		}
		return gen.Arm{Observers: model.Observers{
			Hooks: []model.Hook{func(ref model.LayerRef, pos int, out []float32) {
				c.hook++
				if pos == strikePos && ref.Kind == model.KindUp && ref.Block == 0 {
					out[i%len(out)] += 3
				}
			}},
			AttnHooks: []model.Hook{func(model.LayerRef, int, []float32) { c.attn++ }},
			Checker:   c.checker,
		}}
	}
	type outcome struct {
		res        gen.Result
		hook, attn int
		stats      abft.Stats
		events     []abft.Event
	}
	record := func(res gen.Result, c *seen) outcome {
		return outcome{res, c.hook, c.attn, c.checker.Stats(), c.checker.Events()}
	}

	want := make([]outcome, seqs)
	for i := range want {
		st := m.NewState()
		logits := st.Prefill(prompt(i))
		var c seen
		arm := observers(i, &c)
		st.Observers = arm.Observers
		res := gen.GenerateFrom(m, st, logits, settings(i))
		want[i] = record(res, &c)
	}

	queue := make(chan int, seqs)
	for i := 0; i < seqs; i++ {
		queue <- i
	}
	close(queue)
	got := make([]outcome, seqs)
	seens := make([]seen, seqs)
	arms := make([]gen.Arm, seqs)
	for i := range arms {
		arms[i] = observers(i, &seens[i])
	}
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := gen.NewLoop[int](m, width)
			retire := func(s *gen.Seq[int]) {
				got[s.Owner] = record(s.Result(), &seens[s.Owner])
				l.Release(s)
			}
			for {
				for l.Free() > 0 {
					i, ok := <-queue
					if !ok {
						break
					}
					st := m.NewState()
					if s := l.Admit(st, st.Prefill(prompt(i)), settings(i), arms[i], i); s.Done() {
						retire(s)
					}
				}
				if l.Len() == 0 {
					return
				}
				for _, s := range l.Step() {
					retire(s)
				}
			}
		}()
	}
	wg.Wait()

	flagged := 0
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sequence %d on two lanes differs from GenerateFrom:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		flagged += got[i].stats.Flagged
	}
	if flagged == 0 {
		t.Fatal("no checker flagged a strike: the checkers observed nothing")
	}
}
