package serve_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/abft"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/token"
)

// testServeModel builds the tiny deterministic model and matching
// vocabulary the serving scenario tests run on.
func testServeModel(t testing.TB) (*model.Model, *token.Vocab) {
	t.Helper()
	words := make([]string, 28)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", i)
	}
	vocab := token.NewVocab(words)
	cfg := model.Config{
		Name: "serve-test", Vocab: vocab.Size(), DModel: 16, NHeads: 2,
		NBlocks: 3, FFHidden: 24, MaxSeq: 48, Eps: 1e-5,
		DType: numerics.BF16, RopeTheta: 10000,
	}
	return model.MustBuild(model.Spec{Config: cfg, Family: model.QwenS, Seed: 7}), vocab
}

// testPrompts is a fixed prompt set (token ids all in-vocab).
func testPrompts() [][]int {
	return [][]int{
		{5, 9, 17, 4},
		{21, 6, 30, 11, 8},
		{12, 25, 7},
		{18, 18, 4, 29, 15, 10},
	}
}

// baselinesFor decodes each prompt fault-free through the serial
// generator — the reference the batched serving path must match
// bit-identically.
func baselinesFor(m *model.Model, prompts [][]int, maxNew int) [][]int {
	out := make([][]int, len(prompts))
	for i, p := range prompts {
		out[i] = gen.Generate(m, p, gen.Defaults(maxNew)).Tokens
	}
	return out
}

// startEngine launches cfg's engine with a running scheduler and returns
// it with a stop function (idempotent) that drains and waits for Run.
func startEngine(t *testing.T, cfg serve.Config) (*serve.Engine, func()) {
	t.Helper()
	e, err := serve.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(ctx) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-runDone; err != nil {
				t.Errorf("Run: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return e, stop
}

// TestServeLoadgenGolden is the deterministic end-to-end scenario: N
// concurrent requests with fixed seeds produce a byte-identical response
// set, equal to serial generation, regardless of stream count or batch
// composition.
func TestServeLoadgenGolden(t *testing.T) {
	m, vocab := testServeModel(t)
	prompts := testPrompts()
	const maxNew = 12
	want := baselinesFor(m, prompts, maxNew)

	run := func(streams, width int) *loadgen.Stats {
		e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab, Width: width})
		defer stop()
		st, err := loadgen.Run(context.Background(), e, loadgen.Config{
			Streams: streams, Requests: 16, Prompts: prompts, MaxNew: maxNew, Seed: 900,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	ref := run(1, 1)
	if ref.OK != 16 || ref.Failed != 0 {
		t.Fatalf("serial reference: %d ok, %d failed", ref.OK, ref.Failed)
	}
	for r, resp := range ref.Responses {
		if !reflect.DeepEqual(resp.Tokens, want[r%len(prompts)]) {
			t.Fatalf("request %d: served %v, serial baseline %v", r, resp.Tokens, want[r%len(prompts)])
		}
		if wantText := vocab.Decode(resp.Tokens); resp.Text != wantText {
			t.Fatalf("request %d: text %q, want %q", r, resp.Text, wantText)
		}
	}
	for _, streams := range []int{4, 8} {
		st := run(streams, 8)
		if st.OK != 16 {
			t.Fatalf("streams=%d: %d ok", streams, st.OK)
		}
		for r := range st.Responses {
			if !reflect.DeepEqual(st.Responses[r].Tokens, ref.Responses[r].Tokens) {
				t.Fatalf("streams=%d request %d: %v, want %v",
					streams, r, st.Responses[r].Tokens, ref.Responses[r].Tokens)
			}
		}
	}
}

// TestServeDeadlineExceeded pins the deadline path: an already-expired
// per-request deadline surfaces as context.DeadlineExceeded and counts
// under the deadline_exceeded status.
func TestServeDeadlineExceeded(t *testing.T) {
	m, vocab := testServeModel(t)
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab})
	defer stop()
	resp := e.Submit(context.Background(), serve.Request{
		ID: "dl", Prompt: testPrompts()[0], MaxNew: 8, Deadline: time.Nanosecond,
	})
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", resp.Err)
	}
	if got := e.Metrics().Snapshot().Requests[serve.StatusDeadlineForTest]; got != 1 {
		t.Fatalf("deadline_exceeded count = %d", got)
	}
}

// TestServeCancelMidRequest cancels a request that is already admitted:
// the engine is started only after the request is enqueued and its
// context cancelled, so the scheduler deterministically sweeps it out
// with context.Canceled.
func TestServeCancelMidRequest(t *testing.T) {
	m, vocab := testServeModel(t)
	e, err := serve.NewEngine(serve.Config{Model: m, Vocab: vocab})
	if err != nil {
		t.Fatal(err)
	}
	reqCtx, cancelReq := context.WithCancel(context.Background())
	respCh := make(chan serve.Response, 1)
	go func() {
		respCh <- e.Submit(reqCtx, serve.Request{ID: "c", Prompt: testPrompts()[1], MaxNew: 8})
	}()
	// The request sits in the queue (no scheduler yet); cancel it, then
	// start the scheduler, which must retire it as canceled.
	time.Sleep(10 * time.Millisecond)
	cancelReq()
	runCtx, cancelRun := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(runCtx) }()
	resp := <-respCh
	if !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", resp.Err)
	}
	if got := e.Metrics().Snapshot().Requests[serve.StatusCanceledForTest]; got != 1 {
		t.Fatalf("canceled count = %d", got)
	}
	cancelRun()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}

// TestServeGracefulDrain pins the shutdown contract: after Run's context
// is cancelled, every submitted request resolves (completed or
// serve.ErrDraining, nothing lost or hung), Run returns, later Submits get
// serve.ErrDraining, and the in-flight gauge returns to zero.
func TestServeGracefulDrain(t *testing.T) {
	m, vocab := testServeModel(t)
	e, err := serve.NewEngine(serve.Config{Model: m, Vocab: vocab, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(runCtx) }()

	const n = 12
	resps := make([]serve.Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = e.Submit(context.Background(), serve.Request{
				ID: fmt.Sprintf("g%d", i), Prompt: testPrompts()[i%4], MaxNew: 10,
			})
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let some requests reach the batch
	cancelRun()
	wg.Wait()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	completed, drained := 0, 0
	for i, r := range resps {
		switch {
		case r.Err == nil:
			completed++
		case errors.Is(r.Err, serve.ErrDraining):
			drained++
		default:
			t.Fatalf("request %d: unexpected error %v", i, r.Err)
		}
	}
	if completed+drained != n {
		t.Fatalf("accounted %d+%d of %d requests", completed, drained, n)
	}
	s := e.Metrics().Snapshot()
	if s.InFlight != 0 {
		t.Fatalf("in-flight gauge %d after drain", s.InFlight)
	}
	if s.Requests[serve.StatusOKForTest] != int64(completed) || s.Requests[serve.StatusDrainingForTest] < int64(drained) {
		t.Fatalf("status counters %v vs completed=%d drained=%d", s.Requests, completed, drained)
	}

	resp := e.Submit(context.Background(), serve.Request{ID: "late", Prompt: testPrompts()[0], MaxNew: 4})
	if !errors.Is(resp.Err, serve.ErrDraining) {
		t.Fatalf("post-drain Submit err = %v, want ErrDraining", resp.Err)
	}
}

// TestServeInvalidRequests pins request validation.
func TestServeInvalidRequests(t *testing.T) {
	m, vocab := testServeModel(t)
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab, MaxNewCap: 16})
	defer stop()
	cases := []serve.Request{
		{ID: "empty"},
		{ID: "negative", Prompt: []int{5}, MaxNew: -1},
		{ID: "over-cap", Prompt: []int{5}, MaxNew: 17},
		{ID: "too-long", Prompt: make([]int, 40), MaxNew: 16},
	}
	for _, req := range cases {
		if resp := e.Submit(context.Background(), req); !errors.Is(resp.Err, serve.ErrInvalid) {
			t.Fatalf("%s: err = %v, want ErrInvalid", req.ID, resp.Err)
		}
	}
	if got := e.Metrics().Snapshot().Requests[serve.StatusInvalidForTest]; got != int64(len(cases)) {
		t.Fatalf("invalid count = %d, want %d", got, len(cases))
	}
}

// sitePolicyConfig is the live campaign over all five surfaces with ABFT
// protecting only each request's own site.
func sitePolicyConfig(m *model.Model, vocab *token.Vocab) serve.Config {
	return serve.Config{
		Model: m, Vocab: vocab, Width: 4,
		Inject: &serve.InjectConfig{
			Fault:    faults.Comp1Bit,
			Surfaces: faults.Surfaces,
			Seed:     4242,
			ABFT:     &serve.ABFTConfig{Policy: mitigate.PolicyDetect},
		},
	}
}

// campaignStats runs one injection campaign over the engine and renders
// each response as a comparable line (latency excluded — everything else
// must be a pure function of the load config).
func campaignStats(t *testing.T, m *model.Model, vocab *token.Vocab, streams int) []string {
	t.Helper()
	return campaignLines(t, sitePolicyConfig(m, vocab), streams, 24)
}

// campaignLines runs requests campaign requests over cfg's engine from
// streams closed-loop clients and renders each response as campaignStats
// does.
func campaignLines(t *testing.T, cfg serve.Config, streams, requests int) []string {
	t.Helper()
	prompts := testPrompts()
	const maxNew = 10
	e, stop := startEngine(t, cfg)
	defer stop()
	st, err := loadgen.Run(context.Background(), e, loadgen.Config{
		Streams: streams, Requests: requests, Prompts: prompts,
		Baselines: baselinesFor(cfg.Model, prompts, maxNew),
		MaxNew:    maxNew, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(st.Responses))
	for i, r := range st.Responses {
		lines[i] = fmt.Sprintf("%s tok=%v fired=%v site=%q surf=%s out=%s det=%d err=%v",
			r.ID, r.Tokens, r.Fired, r.Site, r.Surface, r.Outcome, r.Detected, r.Err)
	}
	return lines
}

// TestServeCampaignDeterminism pins the live-campaign trial contract:
// with all five surfaces armed and ABFT in site policy, every
// per-request result (tokens, site, fired, outcome, detection) is
// identical across runs AND across stream counts — fault sites depend
// only on (campaign seed, request seed), never on batch composition.
func TestServeCampaignDeterminism(t *testing.T) {
	m, vocab := testServeModel(t)
	a := campaignStats(t, m, vocab, 6)
	b := campaignStats(t, m, vocab, 6)
	c := campaignStats(t, m, vocab, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rerun diverged at request %d:\n%s\n%s", i, a[i], b[i])
		}
		if a[i] != c[i] {
			t.Fatalf("stream count changed request %d:\n%s\n%s", i, a[i], c[i])
		}
	}
	// The campaign must actually have injected and classified.
	injected := 0
	for _, line := range a {
		if line != "" {
			injected++
		}
	}
	if injected != 24 {
		t.Fatalf("expected 24 responses, got %d", injected)
	}

	// Site policy checks a request's own site only when that site is a
	// linear layer. The other four surfaces have no checksum to violate
	// and must run zero checks — including kv, whose Layer.Kind
	// (k_proj/v_proj) names a linear layer though the strike is in the
	// cache. Response.Detected cannot tell: a checked-but-clean GEMM
	// flags nothing either.
	e, err := serve.NewEngine(sitePolicyConfig(m, vocab))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[faults.Surface]bool{}
	for seed := uint64(0); seed < 200 && len(seen) < len(faults.Surfaces); seed++ {
		site, checks, err := e.ChecksForTest(serve.Request{Prompt: testPrompts()[0], MaxNew: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if linear := site.Surface == faults.SurfaceLinear; (checks > 0) != linear {
			t.Errorf("site %v ran %d ABFT checks under site policy", site, checks)
		}
		seen[site.Surface] = true
	}
	if len(seen) != len(faults.Surfaces) {
		t.Fatalf("200 seeds drew only %v", seen)
	}
}

// TestServeCampaignClassification checks campaign-mode bookkeeping: all
// responses report injection, outcomes are classified against baselines,
// and weight-resident surfaces really did take the serial path (their
// site strings name norm/embed storage).
func TestServeCampaignClassification(t *testing.T) {
	m, vocab := testServeModel(t)
	prompts := testPrompts()
	const maxNew = 10
	e, stop := startEngine(t, serve.Config{
		Model: m, Vocab: vocab, Width: 4,
		Inject: &serve.InjectConfig{Fault: faults.Comp1Bit, Surfaces: faults.Surfaces, Seed: 77},
	})
	defer stop()
	st, err := loadgen.Run(context.Background(), e, loadgen.Config{
		Streams: 8, Requests: 32, Prompts: prompts,
		Baselines: baselinesFor(m, prompts, maxNew),
		MaxNew:    maxNew, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.OK != 32 {
		t.Fatalf("%d ok of 32 (failed=%d)", st.OK, st.Failed)
	}
	if st.Injected != 32 {
		t.Fatalf("injected=%d, want 32", st.Injected)
	}
	surfaces := map[string]int{}
	outcomes := 0
	for _, r := range st.Responses {
		surfaces[r.Surface]++
		if r.Outcome != "" {
			outcomes++
		}
	}
	if outcomes != 32 {
		t.Fatalf("classified %d of 32", outcomes)
	}
	if len(surfaces) < 3 {
		t.Fatalf("surface spread too narrow: %v", surfaces)
	}
	snap := e.Metrics().Snapshot()
	if snap.Injected != 32 {
		t.Fatalf("metrics injected=%d", snap.Injected)
	}
	var outSum int64
	for _, v := range snap.Outcomes {
		outSum += v
	}
	if outSum != 32 {
		t.Fatalf("metrics outcomes sum=%d", outSum)
	}
	// A fresh engine must serve the clean baseline afterwards: no trial
	// left residue in the shared weights.
	clean, stopClean := startEngine(t, serve.Config{Model: m, Vocab: vocab})
	defer stopClean()
	want := baselinesFor(m, prompts, maxNew)
	for i, p := range prompts {
		resp := clean.Submit(context.Background(), serve.Request{ID: "post", Prompt: p, MaxNew: maxNew})
		if !reflect.DeepEqual(resp.Tokens, want[i]) {
			t.Fatalf("prompt %d corrupted after campaign: %v vs %v", i, resp.Tokens, want[i])
		}
	}
}

// stepsThenCancel is a context that reports cancellation from its
// (n+1)-th Err call on: the decode loop polls Err once per step, so a
// request submitted under it is abandoned after exactly n decode steps.
type stepsThenCancel struct {
	context.Context
	n int
}

func (c *stepsThenCancel) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestServeShardedStep pins serving to its lanes: the scheduler runs one
// decode loop per thread of the engine model's budget, forced to four
// here whatever the machine has (four lanes of one row at Width 4, of two
// at Width 8). The five-surface campaign (attention and KV strikes among
// them, a checker on every row) must answer every request exactly as at
// one thread, and a request cancelled while its siblings keep stepping
// must come back with the tokens chosen so far and leave the siblings
// their serial outputs.
func TestServeShardedStep(t *testing.T) {
	m, vocab := testServeModel(t)
	m.SetThreads(1)
	want := campaignStats(t, m, vocab, 8)
	m.SetThreads(4)
	got := campaignStats(t, m, vocab, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d differs at four threads:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	prompts := testPrompts()
	const maxNew = 12
	baselines := baselinesFor(m, prompts, maxNew)
	e, stop := startEngine(t, serve.Config{Model: m, Vocab: vocab, Width: 8})
	defer stop()
	// Seven siblings, one request abandoned after three decode steps, and
	// one cancelled from outside at no particular step.
	raceCtx, cancelRace := context.WithCancel(context.Background())
	defer cancelRace()
	resps := make([]serve.Response, 9)
	var wg sync.WaitGroup
	for i := range resps {
		ctx := context.Background()
		switch i {
		case 3:
			ctx = &stepsThenCancel{Context: ctx, n: 3}
		case 5:
			ctx = raceCtx
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = e.Submit(ctx, serve.Request{ID: fmt.Sprintf("s%d", i), Prompt: prompts[i%len(prompts)], MaxNew: maxNew})
			if i == 0 {
				cancelRace()
			}
		}()
	}
	wg.Wait()
	for i, resp := range resps {
		base := baselines[i%len(prompts)]
		switch i {
		case 3:
			if !errors.Is(resp.Err, context.Canceled) || !reflect.DeepEqual(resp.Tokens, base[:4]) {
				t.Fatalf("request abandoned after three steps: %v, err %v; want the first four of %v", resp.Tokens, resp.Err, base)
			}
		case 5:
			if resp.Err != nil && !errors.Is(resp.Err, context.Canceled) {
				t.Fatalf("cancelled request: err %v", resp.Err)
			}
			if n := len(resp.Tokens); n > len(base) || (n > 0 && !reflect.DeepEqual(resp.Tokens, base[:n])) { // nil tokens: cancelled before the first one
				t.Fatalf("cancelled request returned %v, not a prefix of %v", resp.Tokens, base)
			}
		default:
			if resp.Err != nil || !reflect.DeepEqual(resp.Tokens, base) {
				t.Fatalf("sibling %d: %v, err %v; want %v", i, resp.Tokens, resp.Err, base)
			}
		}
	}
}

// TestServeLanes runs a Width-8 engine under GOMAXPROCS(2) — two lanes
// of four rows over the one model, whatever the machine has — as a live
// campaign over all five surfaces with all-layer ABFT on every row, and
// requires every response to equal a Width-1 engine's (one lane of one
// row) bit for bit. Then the drain contract across lanes: with each lane
// holding a request mid-step and another queued behind them, cancelling
// Run rejects the queued one with ErrDraining, lets both held requests
// finish whole, and returns only after both lanes have drained; a later
// Submit is refused.
func TestServeLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m, vocab := testServeModel(t)
	campaign := func(width int) serve.Config {
		return serve.Config{
			Model: m, Vocab: vocab, Width: width,
			Inject: &serve.InjectConfig{
				Fault:    faults.Comp2Bit,
				Surfaces: faults.Surfaces,
				Seed:     77,
				ABFT:     &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true},
			},
		}
	}
	want := campaignLines(t, campaign(1), 1, 32)
	got := campaignLines(t, campaign(8), 8, 32)
	detected := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("request %d differs on two lanes:\n got %s\nwant %s", i, got[i], want[i])
		}
		if !strings.Contains(got[i], " det=0 ") {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no request was flagged: the checkers observed nothing")
	}

	prompts := testPrompts()
	const maxNew = 10
	baselines := baselinesFor(m, prompts, maxNew)
	e, err := serve.NewEngine(serve.Config{Model: m, Vocab: vocab, Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancelRun := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(runCtx) }()
	resps := make([]serve.Response, 3)
	var wg sync.WaitGroup
	submit := func(i int, ctx context.Context) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = e.Submit(ctx, serve.Request{ID: fmt.Sprintf("l%d", i), Prompt: prompts[i], MaxNew: maxNew})
		}()
	}
	// The first request holds its lane inside its first step; the second
	// can only be admitted by the other lane, and holds it too.
	release := make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	defer releaseAll()
	for i := 0; i < 2; i++ {
		held := &heldCtx{Context: context.Background(), arrived: make(chan struct{}), release: release}
		submit(i, held)
		select {
		case <-held.arrived:
		case <-time.After(10 * time.Second):
			cancelRun()
			t.Fatalf("request %d was never stepped: no free lane took it", i)
		}
	}
	submit(2, context.Background())
	for e.Metrics().Snapshot().InFlight < 3 {
		runtime.Gosched()
	}
	cancelRun()
	releaseAll()
	wg.Wait()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if resps[i].Err != nil || !reflect.DeepEqual(resps[i].Tokens, baselines[i]) {
			t.Fatalf("held request %d: %v, err %v; want %v whole", i, resps[i].Tokens, resps[i].Err, baselines[i])
		}
	}
	if !errors.Is(resps[2].Err, serve.ErrDraining) {
		t.Fatalf("queued request: err %v, want ErrDraining", resps[2].Err)
	}
	if n := e.Metrics().Snapshot().InFlight; n != 0 {
		t.Fatalf("in-flight gauge %d after drain", n)
	}
	if resp := e.Submit(context.Background(), serve.Request{ID: "late", Prompt: prompts[0], MaxNew: 4}); !errors.Is(resp.Err, serve.ErrDraining) {
		t.Fatalf("post-drain Submit err = %v, want ErrDraining", resp.Err)
	}
}

// heldCtx holds the lane stepping its request: a lane polls a request's
// Err once per step, and the first poll reports arrival, then waits for
// release.
type heldCtx struct {
	context.Context
	arrived, release chan struct{}
	once             sync.Once
}

func (c *heldCtx) Err() error {
	c.once.Do(func() {
		close(c.arrived)
		<-c.release
	})
	return nil
}

// flipStored writes a weight-resident site's fault into m's own storage,
// the oracle the engine's strikes are pinned to. m must be a deep clone
// nothing else reads.
func flipStored(t *testing.T, m *model.Model, site faults.Site) {
	t.Helper()
	flip := func(p *float32) {
		*p = float32(numerics.FlipBits(numerics.FP32, float64(*p), site.Bits...))
	}
	switch site.Surface {
	case faults.SurfaceNorm:
		g, err := m.Norm(site.Layer)
		if err != nil {
			t.Fatal(err)
		}
		flip(&g[site.Col])
	case faults.SurfaceEmbed:
		flip(&m.Embed.Row(site.Row)[site.Col])
	case faults.SurfaceLinear:
		w, err := m.Layer(site.Layer)
		if err != nil {
			t.Fatal(err)
		}
		w.(*model.Dense).FlipBits(site.Row, site.Col, site.Bits)
	default:
		t.Fatalf("%v is not a weight-resident site", site)
	}
}

// TestServeWeightResidentThroughLoop pins weight-resident requests — a
// strike on a row of the shared decode loop, checker on the row — to the
// seed oracle: for every weight-resident surface, tokens and Detected
// equal gen.GenerateFrom on a deep clone whose storage was flipped
// after a clean prefill, the model's own checker observing, and every
// such request reports Fired. Cancelling mid-decode returns the tokens
// chosen so far with the context error.
func TestServeWeightResidentThroughLoop(t *testing.T) {
	m, vocab := testServeModel(t)
	prompts := testPrompts()
	const maxNew = 12
	e, stop := startEngine(t, serve.Config{
		Model: m, Vocab: vocab, Width: 4,
		Inject: &serve.InjectConfig{
			Fault:    faults.Mem2Bit,
			Surfaces: []faults.Surface{faults.SurfaceLinear, faults.SurfaceNorm, faults.SurfaceEmbed},
			Seed:     99,
			ABFT:     &serve.ABFTConfig{Policy: mitigate.PolicyDetect, AllLayers: true},
		},
	})
	defer stop()

	surfaces := map[string]int{}
	var long *serve.Request // a request whose full decode outlasts the cancellation below
	var longTokens []int
	for i := 0; i < 18; i++ {
		req := serve.Request{ID: fmt.Sprintf("wr%d", i), Prompt: prompts[i%len(prompts)], MaxNew: maxNew, Seed: uint64(i)}
		site, err := e.SampleSiteForTest(req)
		if err != nil {
			t.Fatal(err)
		}
		clone := m.Clone()
		st := clone.NewState()
		logits := st.Prefill(req.Prompt)
		p := abft.Protection{Policy: mitigate.PolicyDetect, AllLayers: true}
		ck, err := p.Checker(p.Table(clone))
		if err != nil {
			t.Fatal(err)
		}
		st.Checker = ck
		flipStored(t, clone, site)
		want := gen.GenerateFrom(clone, st, logits, gen.Defaults(maxNew))

		resp := e.Submit(context.Background(), req)
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if !reflect.DeepEqual(resp.Tokens, want.Tokens) || resp.Steps != want.Steps {
			t.Fatalf("request %d (%v): served %v (%d steps), oracle %v (%d steps)",
				i, site, resp.Tokens, resp.Steps, want.Tokens, want.Steps)
		}
		if !resp.Fired || resp.Detected != ck.Stats().Flagged {
			t.Fatalf("request %d (%v): fired %v detected %d, oracle flagged %d",
				i, site, resp.Fired, resp.Detected, ck.Stats().Flagged)
		}
		surfaces[resp.Surface]++
		if long == nil && len(resp.Tokens) > 6 {
			r := req
			long, longTokens = &r, resp.Tokens
		}
	}
	if len(surfaces) != 3 {
		t.Fatalf("expected all three weight-resident surfaces, got %v", surfaces)
	}
	if long == nil {
		t.Fatal("no request decoded long enough to cancel mid-decode")
	}

	// First token off the prefix logits, then three decode steps.
	resp := e.Submit(&stepsThenCancel{Context: context.Background(), n: 3}, *long)
	if !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("cancelled request err = %v, want context.Canceled", resp.Err)
	}
	if !reflect.DeepEqual(resp.Tokens, longTokens[:4]) {
		t.Fatalf("cancelled request returned %v, want the first four of %v", resp.Tokens, longTokens)
	}
	if got := e.Metrics().Snapshot().Requests[serve.StatusCanceledForTest]; got != 1 {
		t.Fatalf("canceled count = %d", got)
	}
}
