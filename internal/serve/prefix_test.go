package serve_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/serve"
)

// cachePrompts is a request mix for the prefix cache: a prompt that keeps
// coming back, two that extend it, one that is its leading half, and
// unique ones in between.
func cachePrompts() [][]int {
	hot := []int{5, 9, 17, 4, 21, 6, 30, 11, 8, 12}
	seq := [][]int{hot, hot, {7, 7, 3}, hot, hot}
	seq = append(seq,
		append(append([]int(nil), hot...), 25, 7),  // extends the cached prompt
		append(append([]int(nil), hot...), 25, 18), // shares its extension's first token
		hot[:5],                                    // wholly inside it: one token computed
		[]int{5, 9, 17, 4, 29, 29},                 // diverges mid-way
		[]int{18, 18, 4, 29, 15, 10}, []int{26, 2}, // nothing shared
		hot,
	)
	return append(seq, seq...)
}

// fingerprint renders everything of a response that must not depend on
// what the engine served before it.
func fingerprint(r serve.Response) string {
	return fmt.Sprintf("tok=%v steps=%d fired=%v site=%q surf=%s out=%s det=%d err=%v",
		r.Tokens, r.Steps, r.Fired, r.Site, r.Surface, r.Outcome, r.Detected, r.Err)
}

// TestServePrefixCacheMatchesColdEngine: an engine that has cached the
// prompts it keeps seeing answers every request — repeated, sharing a
// prefix with a cached prompt, or unique; on the batch lane or alone on a
// clone; clean, under a fault on each of the five surfaces, with and
// without all-layer ABFT — exactly as a fresh engine that has never seen
// a prompt answers that one request, and as gen.Generate does whenever
// the fault was masked or did not fire.
func TestServePrefixCacheMatchesColdEngine(t *testing.T) {
	m, vocab := testServeModel(t)
	const maxNew = 8
	prompts := cachePrompts()
	arms := map[string]*serve.InjectConfig{
		"clean":    nil,
		"faults":   {Fault: faults.Comp1Bit, Surfaces: faults.Surfaces, Seed: 33},
		"all-abft": {Fault: faults.Comp1Bit, Surfaces: faults.Surfaces, Seed: 33, ABFT: &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true}},
	}
	for name, inject := range arms {
		t.Run(name, func(t *testing.T) {
			cfg := serve.Config{Model: m, Vocab: vocab, Width: 4, Inject: inject}
			warm, stop := startEngine(t, cfg)
			defer stop()
			surfaces, alone := map[string]int{}, 0
			for i, prompt := range prompts {
				req := serve.Request{ID: fmt.Sprintf("r%d", i), Prompt: prompt, MaxNew: maxNew, Seed: uint64(i)}
				req.Baseline = gen.Generate(m, prompt, gen.Defaults(maxNew)).Tokens
				cold, stopCold := startEngine(t, cfg)
				want := cold.Submit(context.Background(), req)
				stopCold()
				got := warm.Submit(context.Background(), req)
				if got.Err != nil || fingerprint(got) != fingerprint(want) {
					t.Fatalf("request %d %v:\nwarm %s\ncold %s", i, prompt, fingerprint(got), fingerprint(want))
				}
				if (!got.Fired || got.Outcome == outcome.Masked.String()) && !reflect.DeepEqual(got.Tokens, req.Baseline) {
					t.Fatalf("request %d: masked output %v differs from gen.Generate's %v", i, got.Tokens, req.Baseline)
				}
				surfaces[got.Surface]++
				if inject != nil {
					if site, err := warm.SampleSiteForTest(req); err != nil {
						t.Fatal(err)
					} else if site.WeightResident() {
						alone++
					}
				}
			}
			s := warm.Metrics().Snapshot()
			if s.PrefillHits+s.PrefillMisses != int64(len(prompts)) || s.PrefillHits < int64(len(prompts))/2 {
				t.Fatalf("%d hits + %d misses over %d requests: the cache did not engage", s.PrefillHits, s.PrefillMisses, len(prompts))
			}
			if s.PromptTokensReused == 0 || s.PrefixCacheBytes == 0 {
				t.Fatalf("reused %d tokens, %d bytes cached", s.PromptTokensReused, s.PrefixCacheBytes)
			}
			if inject != nil && (len(surfaces) != len(faults.Surfaces) || alone == 0) {
				t.Fatalf("surfaces %v, %d weight-resident: the mix must cover all five and the lone lane", surfaces, alone)
			}
		})
	}
}

// TestServePrefixCacheConcurrentSubmitters sends one prompt from eight
// goroutines at once, repeatedly, so lookups, the third-sighting insert
// and by-reference forks of one Prefix race; every answer must be the
// serial generator's. Run under -race.
func TestServePrefixCacheConcurrentSubmitters(t *testing.T) {
	m, vocab := testServeModel(t)
	prompt := []int{5, 9, 17, 4, 21, 6, 30, 11}
	const maxNew = 10
	want := gen.Generate(m, prompt, gen.Defaults(maxNew)).Tokens
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab, Width: 8,
		Inject: &serve.InjectConfig{Fault: faults.Comp1Bit, Surfaces: []faults.Surface{faults.SurfaceKV, faults.SurfaceNorm}, Seed: 5}})
	defer stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp := e.Submit(context.Background(), serve.Request{ID: fmt.Sprintf("c%d-%d", g, i), Prompt: prompt, MaxNew: maxNew, Seed: uint64(8*i + g), Baseline: want})
				if resp.Err != nil {
					t.Errorf("submitter %d request %d: %v", g, i, resp.Err)
				} else if resp.Outcome == outcome.Masked.String() && !reflect.DeepEqual(resp.Tokens, want) {
					t.Errorf("submitter %d request %d: masked output %v, want %v", g, i, resp.Tokens, want)
				}
			}
		}(g)
	}
	wg.Wait()
	s := e.Metrics().Snapshot()
	if s.PrefillHits < 40 || s.PrefixCacheBytes == 0 {
		t.Fatalf("%d hits of 48, %d bytes cached", s.PrefillHits, s.PrefixCacheBytes)
	}
	// A KV strike on a shared row made that request's rows private; the
	// cached prefix still serves the clean output.
	clean, stopClean := startEngine(t, serve.Config{Model: m, Vocab: vocab})
	defer stopClean()
	for i := 0; i < 4; i++ {
		if resp := clean.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNew: maxNew}); !reflect.DeepEqual(resp.Tokens, want) {
			t.Fatalf("clean request %d: %v, want %v", i, resp.Tokens, want)
		}
	}
}

// TestServePrefixCacheBypassedUnderModelHook: a hook registered on the
// engine's model is shown every prompt position of every request, so the
// engine must not skip any: nothing is cached or reused, and the hook
// sees the same calls for the fifth sighting of a prompt as for the first.
func TestServePrefixCacheBypassedUnderModelHook(t *testing.T) {
	m, vocab := testServeModel(t)
	calls := 0
	m.AddHook(func(model.LayerRef, int, []float32) { calls++ })
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab, Width: 1})
	defer stop()
	var first int
	for i := 0; i < 5; i++ {
		calls = 0
		if resp := e.Submit(context.Background(), serve.Request{Prompt: testPrompts()[3], MaxNew: 2}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if i == 0 {
			first = calls
		} else if calls != first || calls == 0 {
			t.Fatalf("sighting %d: the model's hook saw %d calls, %d at the first", i+1, calls, first)
		}
	}
	if s := e.Metrics().Snapshot(); s.PrefillHits != 0 || s.PrefixCacheBytes != 0 || s.PrefillMisses != 5 {
		t.Fatalf("hooked model: %d hits, %d misses, %d bytes cached", s.PrefillHits, s.PrefillMisses, s.PrefixCacheBytes)
	}
}

// TestServeRefusedBeforePrefill: a request that cannot be served —
// already cancelled, past its deadline, or arriving after drain began —
// is refused without its prompt being prefilled, on the batch lane and on
// the weight-resident lane alike.
func TestServeRefusedBeforePrefill(t *testing.T) {
	m, vocab := testServeModel(t)
	for name, surfaces := range map[string][]faults.Surface{
		"batch lane": {faults.SurfaceLinear},
		"lone lane":  {faults.SurfaceNorm},
	} {
		t.Run(name, func(t *testing.T) {
			e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab,
				Inject: &serve.InjectConfig{Fault: faults.Comp1Bit, Surfaces: surfaces, Seed: 3}})
			req := serve.Request{Prompt: testPrompts()[1], MaxNew: 4}

			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if resp := e.Submit(cancelled, req); !errors.Is(resp.Err, context.Canceled) {
				t.Fatalf("cancelled submit: err %v, want context.Canceled", resp.Err)
			}
			late := req
			late.Deadline = time.Nanosecond
			if resp := e.Submit(context.Background(), late); !errors.Is(resp.Err, context.DeadlineExceeded) {
				t.Fatalf("submit past its deadline: err %v, want context.DeadlineExceeded", resp.Err)
			}
			stop()
			if resp := e.Submit(context.Background(), req); !errors.Is(resp.Err, serve.ErrDraining) {
				t.Fatalf("draining submit: err %v, want ErrDraining", resp.Err)
			}
			s := e.Metrics().Snapshot()
			if n := s.PrefillHits + s.PrefillMisses; n != 0 {
				t.Fatalf("%d prompts were prefilled for requests that were refused", n)
			}
			if s.Requests[serve.StatusCanceledForTest] != 1 || s.Requests[serve.StatusDeadlineForTest] != 1 || s.Requests[serve.StatusDrainingForTest] != 1 {
				t.Fatalf("status counts %v", s.Requests)
			}
		})
	}
}

// TestServeMaskedResponseSharesBaseline: an output equal to the request's
// baseline is returned as the baseline's own slice, a differing one never
// is, and a request without a baseline owns its tokens.
func TestServeMaskedResponseSharesBaseline(t *testing.T) {
	m, vocab := testServeModel(t)
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab})
	defer stop()
	prompt := testPrompts()[0]
	const maxNew = 8
	base := gen.Generate(m, prompt, gen.Defaults(maxNew)).Tokens
	if len(base) == 0 {
		t.Fatal("empty baseline: aliasing would be unobservable")
	}
	same := func(a, b []int) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	resp := e.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNew: maxNew, Baseline: base})
	if !reflect.DeepEqual(resp.Tokens, base) || !same(resp.Tokens, base) {
		t.Fatalf("masked response %v does not share its baseline's array %v", resp.Tokens, base)
	}
	wrong := append([]int(nil), base...)
	wrong[len(wrong)-1]++
	resp = e.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNew: maxNew, Baseline: wrong})
	if !reflect.DeepEqual(resp.Tokens, base) || same(resp.Tokens, wrong) {
		t.Fatalf("differing response %v aliases the baseline it differs from", resp.Tokens)
	}
	resp = e.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNew: maxNew})
	if !reflect.DeepEqual(resp.Tokens, base) || same(resp.Tokens, base) {
		t.Fatalf("response without a baseline %v must own its tokens", resp.Tokens)
	}
}

// TestServePrefillSpanCarriesReuse: a sampled request's prefill span says
// how many prompt tokens came from the cache — none at first, all but the
// last once the prompt is cached — and recording changes no output.
func TestServePrefillSpanCarriesReuse(t *testing.T) {
	m, vocab := testServeModel(t)
	rec := obs.NewRecorder(obs.Config{Service: "serve", Sample: 1})
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab, Recorder: rec})
	prompt := testPrompts()[3]
	want := gen.Generate(m, prompt, gen.Defaults(6)).Tokens
	var traces []string
	for i := 0; i < 5; i++ {
		resp := e.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNew: 6})
		if resp.Err != nil || !reflect.DeepEqual(resp.Tokens, want) {
			t.Fatalf("request %d: %v, err %v; want %v", i, resp.Tokens, resp.Err, want)
		}
		traces = append(traces, resp.Trace.Trace)
	}
	stop()
	reused := map[string]int64{}
	for _, sp := range rec.Recent(0) {
		if sp.Name != "prefill" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "reused_tokens" {
				reused[sp.Trace] = a.Int
			}
		}
	}
	for i, tr := range traces {
		n, ok := reused[tr]
		want := int64(0)
		if i >= 3 { // cached at the third sighting, forked from the fourth
			want = int64(len(prompt) - 1)
		}
		if !ok || n != want {
			t.Fatalf("request %d: prefill span reused_tokens = %d (present %v), want %d", i, n, ok, want)
		}
	}
}
