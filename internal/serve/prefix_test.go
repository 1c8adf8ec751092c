package serve_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/mitigate"
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
// prefix with a cached prompt, or unique; clean, under a fault on each of
// the five surfaces — the weight-resident ones among them — with and
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
			surfaces, resident := map[string]int{}, 0
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
				if got.Surface == faults.SurfaceNorm.String() || got.Surface == faults.SurfaceEmbed.String() {
					resident++
				}
			}
			s := warm.Metrics().Snapshot()
			if s.PrefillHits+s.PrefillMisses != int64(len(prompts)) || s.PrefillHits < int64(len(prompts))/2 {
				t.Fatalf("%d hits + %d misses over %d requests: the cache did not engage", s.PrefillHits, s.PrefillMisses, len(prompts))
			}
			if s.PromptTokensReused == 0 || s.PrefixCacheBytes == 0 {
				t.Fatalf("reused %d tokens, %d bytes cached", s.PromptTokensReused, s.PrefixCacheBytes)
			}
			if inject != nil && (len(surfaces) != len(faults.Surfaces) || resident == 0) {
				t.Fatalf("surfaces %v, %d weight-resident: the mix must cover all five and a strike", surfaces, resident)
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

// TestServeRefusedBeforePrefill: a request that cannot be served —
// already cancelled, past its deadline, or arriving after drain began —
// is refused without its prompt being prefilled, under a transient and
// under a weight-resident fault alike.
func TestServeRefusedBeforePrefill(t *testing.T) {
	m, vocab := testServeModel(t)
	for name, surfaces := range map[string][]faults.Surface{
		"batch lane":  {faults.SurfaceLinear},
		"norm strike": {faults.SurfaceNorm},
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

// TestServeMaskedResponseSharesCleanText: on an injecting engine, a
// response whose tokens equal its prompt's cached clean decode carries
// that decode's text, one string however many requests return it, and a
// response that differs decodes its own.
func TestServeMaskedResponseSharesCleanText(t *testing.T) {
	m, vocab := testServeModel(t)
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab,
		Inject: &serve.InjectConfig{Fault: faults.Comp2Bit, Surfaces: faults.Surfaces, Seed: 5}})
	defer stop()
	prompt := testPrompts()[1]
	const maxNew = 8
	clean := gen.Generate(m, prompt, gen.Defaults(maxNew)).Tokens
	var shared []string
	differing := 0
	for seed := uint64(0); seed < 40; seed++ {
		resp := e.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNew: maxNew, Seed: seed})
		if resp.Err != nil || resp.Text != vocab.Decode(resp.Tokens) {
			t.Fatalf("request %d: text %q for tokens %v, err %v", seed, resp.Text, resp.Tokens, resp.Err)
		}
		switch {
		case !reflect.DeepEqual(resp.Tokens, clean):
			differing++
		case seed >= 2: // the third sighting caches the clean decode and forks it
			shared = append(shared, resp.Text)
		}
	}
	if len(shared) < 2 || differing == 0 {
		t.Fatalf("%d masked responses after the prompt was cached, %d differing: both kinds are needed", len(shared), differing)
	}
	for _, text := range shared[1:] {
		if unsafe.StringData(text) != unsafe.StringData(shared[0]) {
			t.Fatal("two masked responses carry separate copies of the clean decode's text")
		}
	}
}

// TestServeDecodeSpanCarriesResumedAt: a sampled request that forks its
// prompt's clean decode says in its decode span at which step and which
// sublayer it entered it, one that does not says nothing, and the steps
// sum to the engine's count of decode steps skipped.
func TestServeDecodeSpanCarriesResumedAt(t *testing.T) {
	m, vocab := testServeModel(t)
	rec := obs.NewRecorder(obs.Config{Service: "serve", Sample: 1})
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab, Recorder: rec,
		Inject: &serve.InjectConfig{Fault: faults.Comp1Bit, Surfaces: faults.Surfaces, Seed: 9}})
	prompt := testPrompts()[2]
	const requests = 12
	for seed := uint64(0); seed < requests; seed++ {
		if resp := e.Submit(context.Background(), serve.Request{Prompt: prompt, MaxNew: 8, Seed: seed}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	stop()
	var decodes, forked, sum, depths, deep int64
	for _, sp := range rec.Recent(0) {
		if sp.Name != "decode" {
			continue
		}
		decodes++
		for _, a := range sp.Attrs {
			switch a.Key {
			case "resumed_at":
				forked++
				sum += a.Int
			case "resumed_depth":
				depths++
				if a.Int > 0 {
					deep++
				}
			}
		}
	}
	skipped := e.Metrics().Snapshot().DecodeStepsSkipped
	if decodes != requests || forked != requests-2 || sum != skipped || skipped == 0 {
		t.Fatalf("%d decode spans, %d with resumed_at summing to %d; the engine skipped %d steps", decodes, forked, sum, skipped)
	}
	if depths != forked || deep == 0 {
		t.Fatalf("%d forked decode spans, %d with resumed_depth, %d of them past sublayer 0", forked, depths, deep)
	}
}

// TestServeForkMatchesColdEngine: an injected request whose prompt's clean
// decode the engine has cached enters that decode at the first step its
// fault can reach, and answers exactly as a fresh engine, which decodes
// every step from the prompt's end, does — on all five surfaces; under
// budgets below, equal to and above the cached decode's; over a decode
// that stops on EOS; after a KV strike on a row the fork reads from the
// entry, which a second fork must still read clean; with ABFT off,
// all-layer, site-only correcting, and all-layer under a tolerance so
// tight that the clean decode flags, so that the first flag, not the
// fault, bounds the steps skipped.
func TestServeForkMatchesColdEngine(t *testing.T) {
	m, vocab := testServeModel(t)
	ctx := context.Background()
	const entryMax = 8
	// The second prompt's clean decode stops on EOS after 7 tokens; the
	// third is as long as the first and begins as it does, so it may fork
	// the first's prompt rows but never its decode.
	prompts := [][]int{{5, 9, 17, 4, 21, 6}, {9, 5, 7, 12}, {5, 9, 17, 4, 30, 11}}
	arms := []struct {
		name  string
		abft  *serve.ABFTConfig
		tight bool
	}{
		{"off", nil, false},
		{"all-layer", &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true}, false},
		{"site-only", &serve.ABFTConfig{Policy: mitigate.PolicyCorrect}, false},
		{"all-layer-tight", &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true, Tol: 1e-12}, true},
	}
	var sharedKV, eosForks int
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			cfg := serve.Config{Model: m, Vocab: vocab, Width: 4, Inject: &serve.InjectConfig{
				Fault: faults.Comp1Bit, Surfaces: faults.Surfaces, Seed: 41, ABFT: arm.abft}}
			warm, stop := startEngine(t, cfg)
			defer stop()
			// check serves req warm and cold, and returns the decode steps
			// the warm engine skipped.
			check := func(req serve.Request) int {
				t.Helper()
				before := warm.Metrics().Snapshot().DecodeStepsSkipped
				got := warm.Submit(ctx, req)
				cold, stopCold := startEngine(t, cfg)
				want := cold.Submit(ctx, req)
				stopCold()
				if got.Err != nil || fingerprint(got) != fingerprint(want) {
					t.Fatalf("request %s %v max %d:\nwarm %s\ncold %s", req.ID, req.Prompt, req.MaxNew, fingerprint(got), fingerprint(want))
				}
				return int(warm.Metrics().Snapshot().DecodeStepsSkipped - before)
			}
			surfaces := map[faults.Surface]int{}
			skipped, capped := 0, 0
			seed := uint64(0)
			for _, prompt := range prompts {
				clean := gen.Generate(m, prompt, gen.Defaults(entryMax)).Tokens
				for _, maxNew := range []int{entryMax, entryMax, entryMax, 5, entryMax + 4} {
					for k := 0; k < 12; k++ {
						seed++
						req := serve.Request{ID: fmt.Sprint(seed), Prompt: prompt, MaxNew: maxNew, Seed: seed,
							Baseline: gen.Generate(m, prompt, gen.Defaults(maxNew)).Tokens}
						site, err := warm.SampleSiteForTest(req)
						if err != nil {
							t.Fatal(err)
						}
						surfaces[site.Surface]++
						g := check(req)
						skipped += g
						if g < min(faults.Reach(site, clean), len(clean), min(maxNew, entryMax)-1) {
							capped++
						}
						if g == len(clean) && len(clean) < entryMax {
							eosForks++
						}
						// A strike on a decode row the fork read from the
						// entry: the same request again forks the same
						// row, and must find it clean.
						if site.Surface == faults.SurfaceKV && site.Row >= len(prompt) && site.Row < len(prompt)+g {
							sharedKV++
							check(req)
						}
					}
				}
			}
			if len(surfaces) != len(faults.Surfaces) {
				t.Fatalf("surfaces %v: the mix must cover all five", surfaces)
			}
			if arm.tight && capped == 0 {
				t.Fatal("no fork stopped short of its fault's reach: the clean decode's flags bounded nothing")
			}
			if !arm.tight && skipped == 0 {
				t.Fatal("no request skipped a step")
			}
		})
	}
	if sharedKV == 0 || eosForks == 0 {
		t.Fatalf("%d KV strikes on a shared decode row, %d forks at the EOS point: both cases are needed", sharedKV, eosForks)
	}
}

// TestServeDepthForkMatchesColdEngine: once an injecting engine has
// cached a prompt's clean decode with its depth planes, a request of the
// prompt starts each step that matches the decode at its fault's sublayer
// and answers exactly as a fresh engine, which computes every sublayer of
// every step, does — on all five surfaces, with ABFT off, all-layer,
// site-only correcting, and all-layer under a tolerance so tight that the
// clean decode flags. The second prompt begins with the first's leading
// tokens, so its clean decode records its planes on a state forked from
// the first's entry. A prompt's requests are sent at once, so the
// engine's lanes read one entry's planes together.
func TestServeDepthForkMatchesColdEngine(t *testing.T) {
	m, vocab := testServeModel(t)
	ctx := context.Background()
	const maxNew, requests = 10, 24
	prompts := [][]int{{5, 9, 17, 4, 21, 6, 30}, {5, 9, 17, 4, 12, 25}}
	arms := []struct {
		name  string
		abft  *serve.ABFTConfig
		tight bool
	}{
		{"off", nil, false},
		{"all-layer", &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true}, false},
		{"site-only", &serve.ABFTConfig{Policy: mitigate.PolicyCorrect}, false},
		{"all-layer-tight", &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true, Tol: 1e-12}, true},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			cfg := serve.Config{Model: m, Vocab: vocab, Width: 4, Inject: &serve.InjectConfig{
				Fault: faults.Comp1Bit, Surfaces: faults.Surfaces, Seed: 23, ABFT: arm.abft}}
			warm, stop := startEngine(t, cfg)
			defer stop()
			surfaces := map[string]int{}
			seed := uint64(0)
			for i, prompt := range prompts {
				baseline := gen.Generate(m, prompt, gen.Defaults(maxNew)).Tokens
				// The third sighting decodes the prompt clean and caches it.
				reused := warm.Metrics().Snapshot().PromptTokensReused
				for range 3 {
					seed++
					if resp := warm.Submit(ctx, serve.Request{Prompt: prompt, MaxNew: maxNew, Seed: seed}); resp.Err != nil {
						t.Fatal(resp.Err)
					}
				}
				if i > 0 && warm.Metrics().Snapshot().PromptTokensReused == reused {
					t.Fatal("the second prompt forked none of the first's rows")
				}
				before := warm.Metrics().Snapshot()
				reqs, got := make([]serve.Request, requests), make([]serve.Response, requests)
				var wg sync.WaitGroup
				for j := range reqs {
					seed++
					reqs[j] = serve.Request{ID: fmt.Sprint(seed), Prompt: prompt, MaxNew: maxNew, Seed: seed, Baseline: baseline}
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[j] = warm.Submit(ctx, reqs[j])
					}()
				}
				wg.Wait()
				depth := warm.Metrics().Snapshot().DepthSkippedRows - before.DepthSkippedRows
				for j, req := range reqs {
					cold, stopCold := startEngine(t, cfg)
					want := cold.Submit(ctx, req)
					stopCold()
					if got[j].Err != nil || fingerprint(got[j]) != fingerprint(want) {
						t.Fatalf("request %s %v:\nwarm %s\ncold %s", req.ID, req.Prompt, fingerprint(got[j]), fingerprint(want))
					}
					surfaces[got[j].Surface]++
				}
				if !arm.tight && depth == 0 {
					t.Fatalf("prompt %d: no request skipped a sublayer", i)
				}
			}
			if len(surfaces) != len(faults.Surfaces) {
				t.Fatalf("surfaces %v: the mix must cover all five", surfaces)
			}
		})
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
