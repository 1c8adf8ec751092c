// Command llmfi runs a single statistical fault-injection campaign: one
// model, one task suite, one fault model, N uniformly-sampled injection
// trials — the building block the paper's 13M-injection study composes.
//
//	llmfi -suite gsm8k -model math-qwens -fault 2bits-mem -trials 1000
//	llmfi -suite mmlu -model QwenS -fault 1bit-comp -trials 500
//	llmfi -suite wmt16 -model wmt-alma -fault 2bits-comp -beams 6
//	llmfi -suite wmt16-like -model moe -fault 2bits-mem -gate-only
//	llmfi -list
//
// Long campaigns are interruptible: with -checkpoint, Ctrl-C stops the
// pool within one in-flight trial per worker, persists the completed
// trials, and a later -resume run merges to the bit-identical Result of
// an uninterrupted campaign.
//
//	llmfi -suite wmt16-like -model QwenS -trials 5000 -progress -checkpoint run.ckpt
//	llmfi -suite wmt16-like -model QwenS -trials 5000 -progress -resume run.ckpt
//	llmfi -suite gsm8k -model math-qwens -trials 1000 -telemetry tel.json
//
// The -abft flags arm the checksum detection layer (internal/abft) for
// the campaign, reporting recall and false positives alongside the
// outcome tally:
//
//	llmfi -suite wmt16-like -model QwenS -fault 2bits-comp -abft
//	llmfi -suite wmt16-like -model moe -fault 2bits-mem -abft -abft-policy correct-skip
//
// The observability layer: -trace exports sampled propagation traces
// (JSONL, one trace.Record per line; -trace-sample sets the stride),
// and -http serves /metrics (Prometheus), /healthz, /trials and
// net/http/pprof while the campaign runs:
//
//	llmfi -suite wmt16-like -model QwenS -fault 2bits-comp -trace traces.jsonl -trace-sample 16
//	llmfi -suite wmt16-like -model QwenS -trials 5000 -progress -http :9090
//
// -decode-batch N sets the decode-loop width (default 1): each worker
// keeps up to N trials in flight through one stacked forward pass per
// token, memory-fault trials prefilling their prompts on their own rows,
// multiple-choice trials scoring their options one after another on
// theirs, and a beam search's hypotheses taking turns on its trial's row.
// Results are identical at every width — serial decode is the same loop
// at width 1:
//
//	llmfi -suite wmt16-like -model QwenS -fault 2bits-comp -decode-batch 16
//
// The serving extension runs the same model behind a live generate
// endpoint instead of an offline campaign: -serve exposes
// POST /api/v1/generate (plus /healthz and Prometheus /metrics) on the
// continuous-batching engine, SIGINT drains in-flight requests before
// exit, and -inject turns live traffic into a fault campaign — one
// fault per request, sampled over -surfaces, optionally checked by
// -abft. The -loadgen mode is the matching client: it fires
// deterministic concurrent request streams at a running -serve process
// and reports p50/p99 latency, SLO violations, and the outcome tally.
//
//	llmfi -serve :9419 -model QwenS -suite wmt16-like
//	llmfi -serve :9419 -model QwenS -suite wmt16-like -inject -fault 1bit-comp -abft
//	llmfi -loadgen http://127.0.0.1:9419 -model QwenS -suite wmt16-like -streams 8 -requests 64 -slo 250ms
//
// The distributed fabric shards one campaign across processes: a
// coordinator owns the trial-index space and hands out leases over the
// versioned HTTP API (internal/fabric), workers execute leased indices
// and stream results back, and the merged Result is bit-identical to a
// single-process run. Every process constructs the campaign from its
// own flags; the join handshake rejects mismatched configurations.
//
//	llmfi -suite wmt16-like -model QwenS -trials 5000 -coordinator :8080 -checkpoint fleet.ckpt
//	llmfi -suite wmt16-like -model QwenS -trials 5000 -worker http://coordinator:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/mitigate"
	"repro/internal/model"
	"repro/internal/numerics"
	"repro/internal/obs"
	"repro/internal/pretrained"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/version"
)

const usageExamples = `
examples:
  llmfi -suite gsm8k -model math-qwens -fault 2bits-mem -trials 1000
  llmfi -suite mmlu -model QwenS -fault 1bit-comp -trials 500
  llmfi -suite wmt16-like -model QwenS -trials 5000 -progress -checkpoint run.ckpt
  llmfi -suite wmt16-like -model QwenS -trials 5000 -progress -resume run.ckpt
  llmfi -suite gsm8k -model math-qwens -telemetry tel.json
  llmfi -suite wmt16-like -model QwenS -fault 2bits-comp -abft
  llmfi -suite wmt16-like -model moe -fault 2bits-mem -abft -abft-policy correct-skip
  llmfi -suite wmt16-like -model QwenS -fault 2bits-comp -trace traces.jsonl -trace-sample 16
  llmfi -suite wmt16-like -model QwenS -trials 5000 -progress -http :9090
  llmfi -suite wmt16-like -model QwenS -fault 2bits-comp -decode-batch 16
  llmfi -suite wmt16-like -model QwenS -trials 5000 -coordinator :8080 -checkpoint fleet.ckpt
  llmfi -suite wmt16-like -model QwenS -trials 5000 -worker http://coordinator:8080
  llmfi -serve :9419 -model QwenS -suite wmt16-like -inject -fault 1bit-comp -abft
  llmfi -loadgen http://127.0.0.1:9419 -model QwenS -suite wmt16-like -streams 8 -requests 64 -slo 250ms
  llmfi -list
`

func main() {
	log.SetFlags(0)
	var (
		suiteName = flag.String("suite", "gsm8k", "task suite: mmlu|arc|truthfulqa|winogrande|hellaswag|gsm8k|gsm8k-direct|wmt16|xlsum|squadv2|wmt16-like|squad-like")
		modelName = flag.String("model", "math-qwens", "model: a checkpoint name (math-qwens, wmt-alma, ...), a profile (QwenS|LlamaS|FalconS), or 'moe'")
		faultName = flag.String("fault", "2bits-mem", "fault model: 1bit-comp|2bits-comp|2bits-mem")
		trials    = flag.Int("trials", 500, "number of injection trials")
		instances = flag.Int("instances", 10, "evaluation inputs")
		seed      = flag.Uint64("seed", 2025, "campaign seed")
		beams     = flag.Int("beams", 1, "beam count (1 = greedy)")
		gateOnly  = flag.Bool("gate-only", false, "inject only into MoE gate (router) layers")
		reasoning = flag.Bool("reasoning-only", false, "restrict computational faults to reasoning tokens (math suites)")
		dtypeName = flag.String("dtype", "", "override datatype for dense models: FP16|FP32|BF16")
		dir       = flag.String("pretrained", "", "checkpoint directory (default: auto-locate)")
		workers   = flag.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
		batchDec  = flag.Int("decode-batch", 1, "decode-loop width per worker: trials in flight through one stacked forward pass per token (results are identical at every width; beam hypotheses take turns on their trial's row)")
		ckptPath  = flag.String("checkpoint", "", "persist completed trials to this file (periodically and on SIGINT)")
		ckptEvery = flag.Int("checkpoint-every", 64, "completed trials between periodic checkpoint writes")
		resume    = flag.String("resume", "", "resume from this checkpoint file, skipping completed trials")
		progress  = flag.Bool("progress", false, "print a live progress line to stderr")
		telemetry = flag.String("telemetry", "", "write the campaign telemetry snapshot (JSON) to this file")
		abft      = flag.Bool("abft", false, "verify injection-site linear layers with checksum ABFT")
		abftPol   = flag.String("abft-policy", "detect", "ABFT response: detect|correct|correct-skip")
		abftTol   = flag.Float64("abft-tol", 0, "ABFT checksum tolerance override (0 = derived per layer)")
		abftAll   = flag.Bool("abft-all", false, "ABFT: protect every linear layer, not just the trial's site")
		list      = flag.Bool("list", false, "list suites and models")
		csvTrials = flag.String("csv", "", "write per-trial results to this CSV file")
		csvSum    = flag.String("csv-summary", "", "write the aggregate summary to this CSV file")
		tracePath = flag.String("trace", "", "write sampled propagation traces (JSONL) to this file")
		traceN    = flag.Int("trace-sample", 16, "with -trace: trace every N-th trial (1 = all)")
		httpAddr  = flag.String("http", "", "serve /metrics, /healthz, /api/v1/trials and /debug/pprof on this address (e.g. :9090); with -worker: the worker's own /metrics, advertised to the coordinator's fleet fan-in")
		coordAddr = flag.String("coordinator", "", "serve as fleet coordinator on this address (e.g. :8080); workers execute the trials")
		workerURL = flag.String("worker", "", "join the fleet coordinator at this base URL (e.g. http://host:8080) as a worker")
		workerID  = flag.String("worker-name", "", "with -worker: fixed fleet identity (default: coordinator-assigned)")
		serveAddr = flag.String("serve", "", "serve POST /api/v1/generate, /healthz and /metrics on this address (e.g. :9419); SIGINT drains in-flight requests")
		loadURL   = flag.String("loadgen", "", "drive deterministic request streams at a llmfi -serve endpoint at this base URL (e.g. http://127.0.0.1:9419)")
		streams   = flag.Int("streams", 8, "with -serve/-loadgen: engine decode width / concurrent client streams")
		requests  = flag.Int("requests", 64, "with -loadgen: total requests to fire")
		maxNew    = flag.Int("max-new", 12, "with -loadgen: per-request generation budget (0 = server default)")
		reqDL     = flag.Duration("req-deadline", 0, "with -loadgen: per-request deadline (0 = none)")
		sloDur    = flag.Duration("slo", 0, "with -serve/-loadgen: latency objective; slower requests count as SLO violations")
		injectLv  = flag.Bool("inject", false, "with -serve: campaign mode — inject one fault per request (shaped by -fault, -surfaces, -abft)")
		surfaces  = flag.String("surfaces", "all", "with -serve -inject: comma-separated fault surfaces (linear,kv,norm,embed,attn) or 'all'")
		leaseN    = flag.Int("lease-trials", 0, "with -coordinator: trial indices per lease (0 = default 16)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "with -coordinator: lease expiry without worker contact (0 = default 30s)")
		spansPath = flag.String("spans", "", "export sampled end-to-end spans (JSONL, one span per line) to this file")
		spanN     = flag.Int("span-sample", 16, "span sampling stride: trace every N-th root (1 = all, 0 = off)")
		scrapeEv  = flag.Duration("scrape-every", 0, "with -coordinator: worker /metrics scrape interval for the llmfi_fleet_* fan-in (0 = default 2s)")
		showVer   = flag.Bool("version", false, "print the llmfi version and row kernel (avx or portable) and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: llmfi [flags]\n\nflags:\n")
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), usageExamples)
	}
	flag.Parse()

	if *showVer {
		// The kernel changes speed, never results: it is printed so a
		// throughput number from another machine is attributable, and is
		// not part of the version the fleet handshake compares. exp names
		// math.Exp's branch, which does change softmax bits between
		// machines — math.Exp's own dependence on the CPU (DESIGN §13).
		fmt.Println("llmfi " + version.Version + " kernel=" + tensor.Kernel() + " exp=" + tensor.ExpKernel())
		return
	}
	if *list {
		printInventory()
		return
	}
	if *coordAddr != "" && *workerURL != "" {
		log.Fatal("llmfi: -coordinator and -worker are mutually exclusive")
	}
	if *serveAddr != "" && *loadURL != "" {
		log.Fatal("llmfi: -serve and -loadgen are mutually exclusive")
	}
	if (*serveAddr != "" || *loadURL != "") && (*coordAddr != "" || *workerURL != "") {
		log.Fatal("llmfi: -serve/-loadgen cannot combine with the fleet flags")
	}

	suite, err := buildSuite(*suiteName, *seed, *instances)
	if err != nil {
		log.Fatal(err)
	}
	m, err := buildModel(*modelName, suite, *seed, *dir)
	if err != nil {
		log.Fatal(err)
	}
	if *dtypeName != "" {
		dt, err := parseDType(*dtypeName)
		if err != nil {
			log.Fatal(err)
		}
		if m, err = model.WithDType(m, dt); err != nil {
			log.Fatal(err)
		}
	}
	fm, err := parseFault(*faultName)
	if err != nil {
		log.Fatal(err)
	}

	opts := []core.Option{
		core.WithWorkers(*workers),
		core.WithDecodeBatch(*batchDec),
		core.WithGen(gen.Settings{NumBeams: *beams}),
		core.WithReasoningOnly(*reasoning),
	}
	if *gateOnly {
		opts = append(opts, core.WithFilter(faults.GateOnly))
	}
	if *abft || *abftAll {
		pol, err := mitigate.ParsePolicy(*abftPol)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, core.WithABFT(core.ABFTConfig{Tol: *abftTol, Policy: pol, AllLayers: *abftAll}))
	}
	c := core.New(m, suite, fm, *trials, *seed, opts...)

	// SIGINT cancels the campaign; the runner writes a final checkpoint
	// on the way out, so no completed trial is lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *serveAddr != "" {
		var inj *serve.InjectConfig
		if *injectLv {
			sfs, err := parseSurfaces(*surfaces)
			if err != nil {
				log.Fatal(err)
			}
			inj = &serve.InjectConfig{Fault: fm, Surfaces: sfs, Seed: *seed}
			if *abft || *abftAll {
				pol, err := mitigate.ParsePolicy(*abftPol)
				if err != nil {
					log.Fatal(err)
				}
				inj.ABFT = &serve.ABFTConfig{Tol: *abftTol, Policy: pol, AllLayers: *abftAll}
			}
		}
		rec, sw := buildRecorder(*spansPath, "serve", *spanN, true)
		runServe(ctx, m, suite, *serveAddr, *streams, *sloDur, inj, rec)
		closeSpans(sw, *spansPath, rec)
		return
	}
	if *loadURL != "" {
		runLoadgen(ctx, suite, *loadURL, loadgen.Config{
			Streams: *streams, Requests: *requests, MaxNew: *maxNew,
			Deadline: *reqDL, Seed: *seed, SLO: *sloDur,
		})
		return
	}

	if *coordAddr != "" {
		rec, sw := buildRecorder(*spansPath, "coordinator", *spanN, true)
		runCoordinator(ctx, c, *coordAddr, *ckptPath, *ckptEvery, *leaseN, *leaseTTL, *csvTrials, *csvSum,
			rec, sw, *spansPath, *scrapeEv)
		return
	}
	if *workerURL != "" {
		rec, sw := buildRecorder(*spansPath, "worker", *spanN, true)
		runWorker(ctx, c, *workerURL, *workerID, *httpAddr, rec)
		closeSpans(sw, *spansPath, rec)
		return
	}

	// Checkpoint wiring (single-process only; in a fleet, trial persistence
	// belongs to the coordinator): -checkpoint names the file; a bare
	// -resume reuses its file so the resumed run keeps checkpointing.
	saveTo := *ckptPath
	if saveTo == "" {
		saveTo = *resume
	}
	tel := core.NewTelemetry()
	ropts := []core.RunnerOption{
		core.WithTelemetry(tel),
		core.WithCheckpoint(saveTo),
		core.WithCheckpointEvery(*ckptEvery),
	}
	if *resume != "" {
		ck, err := core.LoadCheckpoint(*resume)
		if err != nil {
			log.Fatal(err)
		}
		if err := ck.Matches(c); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "llmfi: resuming from %s: %d/%d trials already complete\n",
			*resume, ck.Done(), c.Trials)
		ropts = append(ropts, core.WithResumeFrom(ck))
	}

	// Trace export: a fresh campaign truncates the file, a resumed one
	// appends — the interrupted run's records stay valid (resumed trials
	// never re-execute, so appending cannot duplicate a trial).
	var traceW *report.TraceWriter
	if *tracePath != "" {
		f, appended, err := report.OpenTrace(*tracePath, *resume != "")
		if err != nil {
			log.Fatal(err)
		}
		if appended {
			fmt.Fprintf(os.Stderr, "llmfi: appending traces to existing %s (resume)\n", *tracePath)
		}
		traceW = report.NewTraceWriter(f)
		ropts = append(ropts, core.WithTrace(*traceN, traceW.Write))
	}

	// Span export: where -trace captures per-trial fault propagation,
	// -spans captures end-to-end timing — one trial span per sampled
	// trial (phase seconds as attributes) under a campaign root span.
	// The observer is collector-side and read-only, so outcomes stay
	// bit-identical with it on.
	rec, spanW := buildRecorder(*spansPath, "campaign", *spanN, false)
	campStart := time.Now()
	var campRoot obs.SpanContext
	if rec.Enabled() {
		campRoot = rec.StartTrace()
		root := campRoot
		ropts = append(ropts, core.WithSpanObserver(func(index int, spans []trace.Span, busy time.Duration) {
			if !rec.SampleRoot() {
				return
			}
			attrs := make([]obs.Attr, 0, len(spans)+1)
			attrs = append(attrs, obs.Int("index", int64(index)))
			for _, ps := range spans {
				attrs = append(attrs, obs.Num(string(ps.Phase)+"_s", ps.Seconds))
			}
			rec.Record(obs.NewSpan(rec.Child(root), root.Span, "trial",
				time.Now().Add(-busy), busy, attrs...))
		}))
	}

	label := fmt.Sprintf("%s/%s/%v", c.Suite.Name, c.Model.Cfg.Name, c.Fault)

	var srv *report.Server
	if *httpAddr != "" {
		srv = report.NewServer(label, tel)
		ln := listen(*httpAddr)
		defer serveOn(ln, srv.Handler())()
		fmt.Fprintf(os.Stderr, "llmfi: serving /metrics /healthz /api/v1/trials /debug/pprof on http://%s\n", ln.Addr())
	}

	var final core.CampaignDone
	var lastProg core.Progress
	for ev := range core.NewRunner(c, ropts...).Stream(ctx) {
		if srv != nil {
			srv.Observe(ev)
		}
		switch e := ev.(type) {
		case core.BaselineReady:
			if *progress {
				fmt.Fprintf(os.Stderr, "llmfi: baseline ready (%d instances)\n", len(e.Baseline.Instances))
			}
		case core.Progress:
			lastProg = e
			if *progress {
				fmt.Fprintf(os.Stderr, "\r%-100s", report.ProgressLine(label, e))
			}
		case core.CampaignDone:
			final = e
		}
	}
	if *progress {
		// Clear the carriage-return line, then leave a durable summary in
		// the scrollback (the CR line would be clobbered by whatever
		// prints next — e.g. the detection summary).
		fmt.Fprintf(os.Stderr, "\r%-100s\r", "")
		if lastProg.Total > 0 {
			fmt.Fprintln(os.Stderr, report.SummaryLine(label, lastProg))
		}
	}
	if traceW != nil {
		n := traceW.Count()
		if err := traceW.Close(); err != nil {
			log.Print(err)
		} else {
			fmt.Fprintf(os.Stderr, "llmfi: wrote %d trace records to %s\n", n, *tracePath)
		}
	}
	if rec.Enabled() {
		rec.Record(obs.NewSpan(campRoot, "", "campaign", campStart, time.Since(campStart),
			obs.Str("label", label), obs.Int("trials", int64(c.Trials))))
	}
	closeSpans(spanW, *spansPath, rec)

	if *telemetry != "" {
		if err := writeTelemetry(*telemetry, tel.Snapshot()); err != nil {
			log.Print(err)
		}
	}
	if final.Err != nil {
		if errors.Is(final.Err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "llmfi: interrupted")
			if saveTo != "" {
				fmt.Fprintf(os.Stderr, "llmfi: partial results saved; resume with -resume %s\n", saveTo)
			}
			os.Exit(130)
		}
		log.Fatal(final.Err)
	}

	printResult(final.Result)
	if *csvTrials != "" {
		if err := writeCSV(*csvTrials, final.Result, report.WriteTrialsCSV); err != nil {
			log.Fatal(err)
		}
	}
	if *csvSum != "" {
		if err := writeCSV(*csvSum, final.Result, report.WriteSummaryCSV); err != nil {
			log.Fatal(err)
		}
	}
}

// listen opens the TCP listener every serving mode of the CLI starts
// from, exiting on failure.
func listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	return ln
}

// serveOn serves h on ln in the background and returns the call that
// shuts the server down; every caller defers it.
func serveOn(ln net.Listener, h http.Handler) (stop func() error) {
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //llmfi:allow golife the server's lifetime is owned by the stop every caller defers, not a ctx
	return hs.Close
}

// runCoordinator serves the fleet API on addr and blocks until every
// trial is merged, then prints the campaign result exactly like a
// single-process run (the merge is bit-identical).
func runCoordinator(ctx context.Context, c core.Campaign, addr, ckptPath string, ckptEvery, leaseTrials int, leaseTTL time.Duration, csvTrials, csvSum string, rec *obs.Recorder, sw *obs.SpanWriter, spansPath string, scrapeEvery time.Duration) {
	co, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Campaign:        c,
		LeaseTTL:        leaseTTL,
		LeaseTrials:     leaseTrials,
		CheckpointPath:  ckptPath,
		CheckpointEvery: ckptEvery,
		Recorder:        rec,
		ScrapeEvery:     scrapeEvery,
	})
	if err != nil {
		log.Fatal(err)
	}
	if n := co.Restored(); n > 0 {
		fmt.Fprintf(os.Stderr, "llmfi: coordinator restored %d/%d trials from %s\n", n, c.Trials, ckptPath)
	}
	ln := listen(addr)
	defer serveOn(ln, co.Handler())()
	go co.RunScrapes(ctx)
	fmt.Fprintf(os.Stderr, "llmfi: coordinating %d trials on http://%s (join with -worker; dashboard at /debug/fleet)\n", c.Trials, ln.Addr())

	res, err := co.Result(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if err := co.Checkpoint(); err != nil {
				log.Print(err)
			}
			closeSpans(sw, spansPath, rec)
			done, total := co.Done()
			fmt.Fprintf(os.Stderr, "llmfi: coordinator interrupted with %d/%d trials merged\n", done, total)
			if ckptPath != "" {
				fmt.Fprintln(os.Stderr, "llmfi: restart the coordinator with the same flags to resume")
			}
			os.Exit(130)
		}
		log.Fatal(err)
	}
	closeSpans(sw, spansPath, rec)
	printResult(res)
	if csvTrials != "" {
		if err := writeCSV(csvTrials, res, report.WriteTrialsCSV); err != nil {
			log.Fatal(err)
		}
	}
	if csvSum != "" {
		if err := writeCSV(csvSum, res, report.WriteSummaryCSV); err != nil {
			log.Fatal(err)
		}
	}
}

// runWorker joins the coordinator at url and executes leases until the
// campaign completes. With httpAddr, the worker serves its own /metrics
// there and advertises the address at join so the coordinator's fan-in
// scrapes it into the llmfi_fleet_* families.
func runWorker(ctx context.Context, c core.Campaign, url, name, httpAddr string, rec *obs.Recorder) {
	cfg := fabric.WorkerConfig{
		Campaign:    c,
		Coordinator: url,
		Name:        name,
		Logf:        log.Printf,
		Recorder:    rec,
	}
	var ln net.Listener
	if httpAddr != "" {
		ln = listen(httpAddr)
		cfg.HTTPAddr = advertiseURL(ln.Addr())
	}
	wk, err := fabric.NewWorker(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if ln != nil {
		defer serveOn(ln, wk.Handler())()
		fmt.Fprintf(os.Stderr, "llmfi: worker metrics on %s/metrics\n", cfg.HTTPAddr)
	}
	if err := wk.Run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "llmfi: worker interrupted after %d trials (outstanding leases will be reissued)\n", wk.Executed())
			os.Exit(130)
		}
		log.Fatal(err)
	}
}

// runServe exposes the model behind the live generate endpoint on the
// continuous-batching engine and blocks until SIGINT, then drains every
// in-flight request before returning (Engine.Run's graceful-drain
// contract).
func runServe(ctx context.Context, m *model.Model, suite *tasks.Suite, addr string, width int, slo time.Duration, inj *serve.InjectConfig, rec *obs.Recorder) {
	e, err := serve.NewEngine(serve.Config{
		Model: m, Vocab: suite.Vocab, Width: width, SLO: slo, Inject: inj,
		Recorder: rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln := listen(addr)
	defer serveOn(ln, e.Handler())()
	mode := "clean"
	if inj != nil {
		mode = fmt.Sprintf("fault campaign: %v over %d surfaces", inj.Fault, len(inj.Surfaces))
		if inj.ABFT != nil {
			mode += ", abft armed"
		}
	}
	fmt.Fprintf(os.Stderr, "llmfi: serving %s/generate /healthz /metrics /debug/fleet on http://%s (%s; SIGINT drains)\n",
		report.APIVersion, ln.Addr(), mode)
	if err := e.Run(ctx); err != nil {
		log.Fatal(err)
	}
	s := e.Metrics().Snapshot()
	var total int64
	for _, n := range s.Requests {
		total += n
	}
	fmt.Fprintf(os.Stderr, "llmfi: drained: %d requests finished, %d tokens generated, %d SLO violations\n",
		total, s.Tokens, s.SLOViolations)
}

// runLoadgen fires deterministic request streams at a remote -serve
// endpoint, drawing prompts from the configured suite (the server must
// be built from the same -suite/-model flags for the vocabulary to
// round-trip), and prints the operator-facing summary.
func runLoadgen(ctx context.Context, suite *tasks.Suite, url string, cfg loadgen.Config) {
	cfg.Prompts = make([][]int, len(suite.Instances))
	for i, inst := range suite.Instances {
		cfg.Prompts[i] = inst.Prompt
	}
	tgt := &loadgen.HTTPTarget{Base: strings.TrimRight(url, "/"), Vocab: suite.Vocab}
	st, err := loadgen.Run(ctx, tgt, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loadgen: %d requests over %d streams against %s\n",
		cfg.Requests, cfg.Streams, tgt.Base)
	fmt.Printf("  status: ok %d, deadline %d, canceled %d, failed %d\n",
		st.OK, st.DeadlineExceeded, st.Canceled, st.Failed)
	fmt.Printf("  latency: p50 %v  p90 %v  p99 %v  max %v\n", st.P50, st.P90, st.P99, st.Max)
	if cfg.SLO > 0 {
		fmt.Printf("  slo %v: %d violations (%.1f%%)\n",
			cfg.SLO, st.SLOViolations, 100*float64(st.SLOViolations)/float64(cfg.Requests))
	}
	if st.Injected > 0 {
		fmt.Printf("  campaign: injected %d, fired %d\n", st.Injected, st.Fired)
	}
	if st.Failed > 0 {
		for _, resp := range st.Responses {
			if resp.Err != nil && resp.Err != context.DeadlineExceeded && resp.Err != context.Canceled {
				log.Fatalf("llmfi: request %s failed: %v", resp.ID, resp.Err)
			}
		}
	}
}

// parseSurfaces reads the -surfaces list ("all" = every surface).
func parseSurfaces(s string) ([]faults.Surface, error) {
	if s == "" || s == "all" {
		return faults.Surfaces, nil
	}
	var out []faults.Surface
	for _, name := range strings.Split(s, ",") {
		sf, err := faults.ParseSurface(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, sf)
	}
	return out, nil
}

// buildRecorder wires -spans/-span-sample into a span recorder for one
// service. With no -spans file, dashboard-backed modes (ring=true:
// serve, coordinator, worker) still get an in-memory recorder so
// /debug/fleet shows recent spans and fleet traces stitch; the offline
// campaign mode returns a nil (disabled) recorder instead — the default
// campaign path carries zero tracing overhead.
func buildRecorder(path, service string, sample int, ring bool) (*obs.Recorder, *obs.SpanWriter) {
	if path == "" && !ring {
		return nil, nil
	}
	cfg := obs.Config{Service: service, Sample: sample, Recent: 128}
	var sw *obs.SpanWriter
	if path != "" {
		var err error
		if sw, err = obs.OpenSpans(path); err != nil {
			log.Fatal(err)
		}
		cfg.Sink = sw.Write
	}
	return obs.NewRecorder(cfg), sw
}

// closeSpans flushes the span export file and reports any latched sink
// error. Safe on a nil writer (no -spans flag).
func closeSpans(sw *obs.SpanWriter, path string, rec *obs.Recorder) {
	if sw == nil {
		return
	}
	if err := rec.Err(); err != nil {
		log.Printf("llmfi: span export: %v", err)
	}
	n := sw.Count()
	if err := sw.Close(); err != nil {
		log.Print(err)
		return
	}
	fmt.Fprintf(os.Stderr, "llmfi: wrote %d spans to %s\n", n, path)
}

// advertiseURL turns a bound listener address into a base URL other
// processes can reach; unspecified hosts (":9431") become loopback.
func advertiseURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// writeTelemetry dumps the telemetry snapshot as JSON to path.
func writeTelemetry(path string, s core.TelemetrySnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteTelemetryJSON(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV writes a campaign export to path.
func writeCSV(path string, res *core.Result, fn func(io.Writer, *core.Result) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildSuite(name string, seed uint64, n int) (*tasks.Suite, error) {
	s, err := pretrained.Suite(name, seed, n)
	if err != nil {
		return nil, fmt.Errorf("%w (try -list)", err)
	}
	return s, nil
}

func buildModel(name string, suite *tasks.Suite, seed uint64, dir string) (*model.Model, error) {
	switch name {
	case "QwenS", "LlamaS", "FalconS", "moe":
		if suite.Vocab.Size() != tasks.GeneralVocab().Size() {
			return nil, fmt.Errorf("profile models use the general vocabulary; suite %s needs a trained checkpoint (try -list)", suite.Name)
		}
		return pretrained.ProfileModel(name, seed)
	default:
		if dir == "" {
			dir = pretrained.DefaultDir()
		}
		return pretrained.NewLoader(dir).Load(name)
	}
}

func parseFault(name string) (faults.Model, error) {
	for _, fm := range faults.Models {
		if fm.String() == name {
			return fm, nil
		}
	}
	return 0, fmt.Errorf("unknown fault model %q", name)
}

func parseDType(name string) (numerics.DType, error) {
	switch strings.ToUpper(name) {
	case "FP16":
		return numerics.FP16, nil
	case "FP32":
		return numerics.FP32, nil
	case "BF16":
		return numerics.BF16, nil
	default:
		return 0, fmt.Errorf("unknown dtype %q", name)
	}
}

func printResult(res *core.Result) {
	c := res.Campaign
	fmt.Printf("campaign: %s on %s under %v, %d trials, seed %d\n\n",
		c.Model.Cfg.Name, c.Suite.Name, c.Fault, len(res.Trials), c.Seed)

	fmt.Println("fault-free baseline:")
	for _, k := range c.Suite.Metrics {
		fmt.Printf("  %-12s %.4f\n", k, res.Baseline.MetricMeans[k])
	}
	fmt.Printf("  %-12s %.4f\n\n", "gold-acc", res.Baseline.GoldAccuracy)

	t := report.NewTable("Metric", "P_fault", "NormPerf", "95% CI")
	for _, k := range c.Suite.Metrics {
		r := res.Normalized(k)
		t.Row(string(k), res.MetricMean(k), r.Value, fmt.Sprintf("[%.4f, %.4f]", r.Lo, r.Hi))
	}
	fmt.Println(t.String())

	if c.ABFT != nil {
		d := res.Detection()
		fmt.Printf("abft: %d checks, %d flagged; recall %.1f%% (%d/%d fired), false positives %d, cascaded %d\n",
			d.Checks, d.Flagged, 100*d.Recall(), d.Detected, d.Fired, d.FalsePositives, d.Cascaded)
		if d.Corrected+d.Skipped > 0 {
			fmt.Printf("abft: corrected %d rows, skipped (zeroed) %d rows\n", d.Corrected, d.Skipped)
		}
	}

	tally := res.Tally()
	fmt.Printf("outcomes: Masked %d (%.1f%%), SDC-subtle %d, SDC-distorted %d; fired %.1f%%\n",
		tally.Masked, 100*res.MaskedRate(), tally.Subtle, tally.Distorted, 100*res.FiredRate())
	if c.Model.Cfg.IsMoE() {
		fmt.Printf("expert selection changed: %.1f%%\n", 100*res.ExpertChangedRate())
	}

	buckets := res.BitBreakdown()
	if len(buckets) > 0 {
		fmt.Println("\nSDCs by highest flipped bit:")
		bt := report.NewTable("Bit", "Trials", "Subtle", "Distorted")
		for _, b := range buckets {
			bt.Row(b.Bit, b.Trials, b.Subtle, b.Distorted)
		}
		fmt.Println(bt.String())
	}
}

func printInventory() {
	fmt.Println("suites:")
	for _, s := range []string{"mmlu", "arc", "truthfulqa", "winogrande", "hellaswag"} {
		fmt.Printf("  %-12s multiple-choice, models: QwenS LlamaS FalconS moe\n", s)
	}
	fmt.Println("  gsm8k        generative math (+gsm8k-direct), models: math-qwens math-falcons")
	fmt.Println("  wmt16        translation, models: wmt-qwens wmt-llamas wmt-alma")
	fmt.Println("  xlsum        summarization, models: xlsum-llamas xlsum-qwens xlsum-summarizer")
	fmt.Println("  squadv2      QA, models: squad-llamas squad-qwens squad-falcons")
	fmt.Println("  wmt16-like   self-referential generative, models: QwenS LlamaS FalconS moe")
	fmt.Println("  squad-like   self-referential generative, models: QwenS LlamaS FalconS moe")
	fmt.Println("\ncheckpoints (run cmd/pretrain to (re)generate):")
	for _, j := range pretrained.Jobs() {
		ft := ""
		if j.Base != "" {
			ft = " (fine-tuned from " + j.Base + ")"
		}
		fmt.Printf("  %-18s task %s%s\n", j.Name, j.Task, ft)
	}
}
