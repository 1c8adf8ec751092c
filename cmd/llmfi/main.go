// Command llmfi runs a single statistical fault-injection campaign: one
// model, one task suite, one fault model, N uniformly-sampled injection
// trials — the building block the paper's 13M-injection study composes.
// Four subcommands front the serving and fleet extensions, and each mode
// parses only the flags it reads (llmfi MODE -h lists them):
//
//	llmfi [flags]                 run one campaign in this process
//	llmfi serve -addr ADDR        serve the model behind POST /api/v1/generate
//	llmfi loadgen -url URL        fire request streams at a serve endpoint
//	llmfi coordinator -addr ADDR  hand a campaign's trials to fleet workers
//	llmfi worker -url URL         execute a coordinator's leases
//
// A campaign:
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
// keeps up to N trials in flight through stacked forward passes, split
// over as many one-thread lanes as it has cores (up to N), memory-fault
// trials prefilling their prompts on their own rows,
// multiple-choice trials scoring their options one after another on
// theirs, and a beam search's hypotheses taking turns on its trial's row.
// Results are identical at every width — serial decode is the same loop
// at width 1:
//
//	llmfi -suite wmt16-like -model QwenS -fault 2bits-comp -decode-batch 16
//
// The serving extension runs the same model behind a live generate
// endpoint instead of an offline campaign: serve exposes
// POST /api/v1/generate (plus /healthz and Prometheus /metrics) on the
// continuous-batching engine, SIGINT drains in-flight requests before
// exit, and -inject turns live traffic into a fault campaign — one
// fault per request, sampled over -surfaces, optionally checked by
// -abft. loadgen is the matching client: it needs only the suite the
// server was built from, fires deterministic concurrent request streams
// at it and reports p50/p99 latency, SLO violations, and the outcome
// tally.
//
//	llmfi serve -addr :9419 -model QwenS -suite wmt16-like
//	llmfi serve -addr :9419 -model QwenS -suite wmt16-like -inject -fault 1bit-comp -abft
//	llmfi loadgen -url http://127.0.0.1:9419 -suite wmt16-like -streams 8 -requests 64 -slo 250ms
//
// The distributed fabric shards one campaign across processes: a
// coordinator owns the trial-index space and hands out leases over the
// versioned HTTP API (internal/fabric), workers execute leased indices
// and stream results back, and the merged Result is bit-identical to a
// single-process run. The bare command, coordinator and worker share
// the campaign-definition flags, so one argument string builds every
// process of a fleet; the join handshake rejects mismatched campaigns.
//
//	llmfi coordinator -addr :8080 -suite wmt16-like -model QwenS -trials 5000 -checkpoint fleet.ckpt
//	llmfi worker -url http://coordinator:8080 -suite wmt16-like -model QwenS -trials 5000
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
	"slices"
	"strings"
	"time"

	"repro/internal/abft"
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
	"repro/internal/version"
)

// mode is one way to run llmfi: the subcommand that selects it ("" for
// the bare campaign command), its synopsis and description, the flags it
// reads, and what it does with them. service names the mode's spans (""
// for a mode that records none); every such mode but the bare campaign
// backs a dashboard, so it keeps its recent spans in memory even without
// -spans. run writes results to stdout and progress to stderr; an error
// wrapping context.Canceled means SIGINT stopped it.
type mode struct {
	name, synopsis, about, service string
	flags                          func(f *flags, fs *flag.FlagSet)
	run                            func(ctx context.Context, f *flags, rec *obs.Recorder, stdout io.Writer) error
}

var modes = []mode{
	{"", "llmfi", "run one campaign in this process", "campaign", (*flags).campaignMode, runCampaign},
	{"serve", "llmfi serve -addr ADDR", "serve the model behind POST /api/v1/generate", "serve", (*flags).serveMode, runServe},
	{"loadgen", "llmfi loadgen -url URL", "fire request streams at a serve endpoint", "", (*flags).loadgenMode, runLoadgen},
	{"coordinator", "llmfi coordinator -addr ADDR", "hand a campaign's trials to fleet workers", "coordinator", (*flags).coordinatorMode, runCoordinator},
	{"worker", "llmfi worker -url URL", "execute a coordinator's leases", "worker", (*flags).workerMode, runWorker},
}

func main() {
	log.SetFlags(0)
	m, f, err := parse(os.Args[1:], flag.ExitOnError, os.Stderr)
	if err != nil {
		os.Exit(2) // parse has reported it
	}
	rec, sw := f.recorder(m)

	// SIGINT cancels the mode: a campaign's runner writes a final
	// checkpoint on the way out, so no completed trial is lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err = m.run(ctx, f, rec, os.Stdout)
	stop()
	if err := rec.Err(); err != nil {
		log.Printf("llmfi: span export: %v", err)
	}
	closeRecords(sw, "spans", f.spansPath)
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// parse picks the mode args name — a subcommand, or else the bare
// campaign command — and parses the rest of args on a flag set holding
// that mode's flags and no other, reporting errors and usage to out.
// With flag.ExitOnError a bad flag exits 2 inside; an unexpected
// argument is still returned.
func parse(args []string, h flag.ErrorHandling, out io.Writer) (mode, *flags, error) {
	m := modes[0]
	for _, sub := range modes[1:] {
		if len(args) > 0 && args[0] == sub.name {
			m, args = sub, args[1:]
			break
		}
	}
	fs := flag.NewFlagSet(strings.TrimSpace("llmfi "+m.name), h)
	fs.SetOutput(out)
	f := new(flags)
	m.flags(f, fs)
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: %s [flags]\n  %s\n\nflags:\n", m.synopsis, m.about)
		fs.PrintDefaults()
		if m.name == "" {
			fmt.Fprintln(out, "\nmodes (llmfi MODE -h lists a mode's flags):")
			for _, other := range modes {
				fmt.Fprintf(out, "  %-37s %s\n", other.synopsis+" [flags]", other.about)
			}
		}
	}
	if err := fs.Parse(args); err != nil {
		return m, nil, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("llmfi: unexpected argument %q", fs.Arg(0))
		fmt.Fprintln(out, err)
		fs.Usage()
		return m, nil, err
	}
	return m, f, nil
}

// flags holds the settings of every mode; each mode registers on its
// flag set the groups below and the mode-only flags it reads. Its
// builders (campaign, model, suite, protection, surfaceList, recorder)
// exit at once, status 1 with one line, on a value that names nothing:
// no mode can start without them. What fails once a mode runs is
// returned.
type flags struct {
	suiteName string // suite group
	instances int
	seed      uint64

	modelName, faultName, dtypeName, dir string // model group: suite, model, fault model, ABFT
	abft, abftAll                        bool
	abftPol                              string
	abftTol                              float64

	trials, beams, workers, decodeBatch int // campaign-definition group: model group, trial space
	gateOnly, reasoning                 bool

	spansPath string // span-export group
	spanN     int

	ckptPath, csvTrials, csvSum string // result group: checkpoint and CSVs of a merged result
	ckptEvery                   int

	addr, url, name, httpAddr, resume, telemetry, tracePath, surfaces string // mode-only flags
	progress, list, showVersion, inject                               bool
	traceN, streams, requests, maxNew, leaseN                         int
	reqDL, slo, leaseTTL, scrapeEvery                                 time.Duration
}

func (f *flags) suiteFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.suiteName, "suite", "gsm8k", "task suite: mmlu|arc|truthfulqa|winogrande|hellaswag|gsm8k|gsm8k-direct|wmt16|xlsum|squadv2|wmt16-like|squad-like")
	fs.IntVar(&f.instances, "instances", 10, "evaluation inputs")
	fs.Uint64Var(&f.seed, "seed", 2025, "campaign seed")
}

func (f *flags) modelFlags(fs *flag.FlagSet) {
	f.suiteFlags(fs)
	fs.StringVar(&f.modelName, "model", "math-qwens", "model: a checkpoint name (math-qwens, wmt-alma, ...), a profile (QwenS|LlamaS|FalconS), or 'moe'")
	fs.StringVar(&f.faultName, "fault", "2bits-mem", "fault model: 1bit-comp|2bits-comp|2bits-mem")
	fs.StringVar(&f.dtypeName, "dtype", "", "override datatype for dense models: FP16|FP32|BF16")
	fs.StringVar(&f.dir, "pretrained", "", "checkpoint directory (default: the checkpoints built into the binary)")
	fs.BoolVar(&f.abft, "abft", false, "verify injection-site linear layers with checksum ABFT")
	fs.StringVar(&f.abftPol, "abft-policy", "detect", "ABFT response: detect|correct|correct-skip")
	fs.Float64Var(&f.abftTol, "abft-tol", 0, "ABFT checksum tolerance override (0 = derived per layer)")
	fs.BoolVar(&f.abftAll, "abft-all", false, "ABFT: protect every linear layer, not just the trial's site")
}

// campaignFlags registers the campaign definition. The bare command,
// coordinator and worker register it verbatim, so one argument string
// builds every process of a fleet with a matching fingerprint. The
// coordinator runs no trials: -workers and -decode-batch are the only
// flags any mode accepts without reading them.
func (f *flags) campaignFlags(fs *flag.FlagSet) {
	f.modelFlags(fs)
	fs.IntVar(&f.trials, "trials", 500, "number of injection trials")
	fs.IntVar(&f.beams, "beams", 1, "beam count (1 = greedy)")
	fs.BoolVar(&f.gateOnly, "gate-only", false, "inject only into MoE gate (router) layers")
	fs.BoolVar(&f.reasoning, "reasoning-only", false, "restrict computational faults to reasoning tokens (math suites)")
	fs.IntVar(&f.workers, "workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&f.decodeBatch, "decode-batch", 1, "decode-loop width per worker: trials in flight through one stacked forward pass per token (results are identical at every width; beam hypotheses take turns on their trial's row)")
}

func (f *flags) spanFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.spansPath, "spans", "", "export sampled end-to-end spans (JSONL, one span per line) to this file")
	fs.IntVar(&f.spanN, "span-sample", 16, "span sampling stride: trace every N-th root (1 = all, 0 = off)")
}

// resultFlags registers what the process that merges a campaign's result
// — the bare command or the coordinator — persists and writes out.
func (f *flags) resultFlags(fs *flag.FlagSet) {
	fs.StringVar(&f.ckptPath, "checkpoint", "", "persist completed trials to this file (periodically and on SIGINT)")
	fs.IntVar(&f.ckptEvery, "checkpoint-every", 64, "completed trials between periodic checkpoint writes")
	fs.StringVar(&f.csvTrials, "csv", "", "write per-trial results to this CSV file")
	fs.StringVar(&f.csvSum, "csv-summary", "", "write the aggregate summary to this CSV file")
}

func (f *flags) campaignMode(fs *flag.FlagSet) {
	f.campaignFlags(fs)
	f.resultFlags(fs)
	f.spanFlags(fs)
	fs.StringVar(&f.resume, "resume", "", "resume from this checkpoint file, skipping completed trials")
	fs.BoolVar(&f.progress, "progress", false, "print a live progress line to stderr")
	fs.StringVar(&f.telemetry, "telemetry", "", "write the campaign telemetry snapshot (JSON) to this file")
	fs.StringVar(&f.tracePath, "trace", "", "write sampled propagation traces (JSONL) to this file")
	fs.IntVar(&f.traceN, "trace-sample", 16, "with -trace: trace every N-th trial (1 = all)")
	fs.StringVar(&f.httpAddr, "http", "", "serve /metrics, /healthz, /api/v1/trials and /debug/pprof on this address (e.g. :9090)")
	fs.BoolVar(&f.list, "list", false, "list suites and models")
	fs.BoolVar(&f.showVersion, "version", false, "print the llmfi version and row kernel (avx or portable) and exit")
}

func (f *flags) serveMode(fs *flag.FlagSet) {
	f.modelFlags(fs)
	f.spanFlags(fs)
	fs.StringVar(&f.addr, "addr", "127.0.0.1:9419", "serve POST /api/v1/generate, /healthz and /metrics on this address; SIGINT drains in-flight requests")
	fs.IntVar(&f.streams, "streams", 8, "engine decode width: requests in flight through one stacked forward pass per token")
	fs.DurationVar(&f.slo, "slo", 0, "latency objective; slower requests count as SLO violations")
	fs.BoolVar(&f.inject, "inject", false, "campaign mode: inject one fault per request (shaped by -fault, -surfaces, -abft)")
	fs.StringVar(&f.surfaces, "surfaces", "all", "with -inject: comma-separated fault surfaces (linear,kv,norm,embed,attn) or 'all'")
}

func (f *flags) loadgenMode(fs *flag.FlagSet) {
	f.suiteFlags(fs)
	fs.StringVar(&f.url, "url", "http://127.0.0.1:9419", "base URL of the llmfi serve endpoint to drive")
	fs.IntVar(&f.streams, "streams", 8, "concurrent client streams")
	fs.IntVar(&f.requests, "requests", 64, "total requests to fire")
	fs.IntVar(&f.maxNew, "max-new", 12, "per-request generation budget (0 = server default)")
	fs.DurationVar(&f.reqDL, "req-deadline", 0, "per-request deadline (0 = none); expired requests count in the deadline column")
	fs.DurationVar(&f.slo, "slo", 0, "latency objective; slower requests count as SLO violations")
}

func (f *flags) coordinatorMode(fs *flag.FlagSet) {
	f.campaignFlags(fs)
	f.resultFlags(fs)
	f.spanFlags(fs)
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8080", "serve the fleet API, /metrics and /debug/fleet on this address")
	fs.IntVar(&f.leaseN, "lease-trials", 0, "trial indices per lease (0 = default 16)")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", 0, "lease expiry without worker contact (0 = default 30s)")
	fs.DurationVar(&f.scrapeEvery, "scrape-every", 0, "worker /metrics scrape interval for the llmfi_fleet_* fan-in (0 = default 2s)")
}

func (f *flags) workerMode(fs *flag.FlagSet) {
	f.campaignFlags(fs)
	f.spanFlags(fs)
	fs.StringVar(&f.url, "url", "http://127.0.0.1:8080", "base URL of the fleet coordinator to join")
	fs.StringVar(&f.name, "name", "", "fixed fleet identity (default: coordinator-assigned)")
	fs.StringVar(&f.httpAddr, "http", "", "serve the worker's own /metrics on this address, advertised to the coordinator's fleet fan-in")
}

func runCampaign(ctx context.Context, f *flags, rec *obs.Recorder, stdout io.Writer) error {
	if f.showVersion {
		// The kernel changes speed, never results: it is printed so a
		// throughput number from another machine is attributable, and is
		// not part of the version the fleet handshake compares. exp names
		// math.Exp's branch, which does change softmax bits between
		// machines — math.Exp's own dependence on the CPU (DESIGN §13).
		fmt.Fprintln(stdout, "llmfi "+version.Version+" kernel="+tensor.Kernel()+" exp="+tensor.ExpKernel())
		return nil
	}
	if f.list {
		printInventory(stdout)
		return nil
	}
	c := f.campaign()

	// Checkpoint wiring (single-process only; in a fleet, trial persistence
	// belongs to the coordinator): -checkpoint names the file; a bare
	// -resume reuses its file so the resumed run keeps checkpointing.
	saveTo := f.ckptPath
	if saveTo == "" {
		saveTo = f.resume
	}
	tel := core.NewTelemetry()
	ropts := []core.RunnerOption{
		core.WithTelemetry(tel),
		core.WithCheckpoint(saveTo),
		core.WithCheckpointEvery(f.ckptEvery),
	}
	if f.resume != "" {
		ck, err := core.LoadCheckpoint(f.resume)
		if err != nil {
			return err
		}
		if err := ck.Matches(c); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "llmfi: resuming from %s: %d/%d trials already complete\n",
			f.resume, ck.Done(), c.Trials)
		ropts = append(ropts, core.WithResumeFrom(ck))
	}

	// Trace export: a fresh campaign truncates the file, a resumed one
	// appends — the interrupted run's records stay valid (resumed trials
	// never re-execute, so appending cannot duplicate a trial).
	var traceW *report.TraceWriter
	if f.tracePath != "" {
		tf, appended, err := report.OpenTrace(f.tracePath, f.resume != "")
		if err != nil {
			return err
		}
		if appended {
			fmt.Fprintf(os.Stderr, "llmfi: appending traces to existing %s (resume)\n", f.tracePath)
		}
		traceW = report.NewTraceWriter(tf)
		ropts = append(ropts, core.WithTrace(f.traceN, traceW.Write))
	}

	// Span export: where -trace captures per-trial fault propagation,
	// -spans captures end-to-end timing — one trial span per sampled
	// trial (phase seconds as attributes) under a campaign root span.
	// The observer is collector-side and read-only, so outcomes stay
	// bit-identical with it on.
	campStart := time.Now()
	var campRoot obs.SpanContext
	if rec.Enabled() {
		campRoot = rec.StartTrace()
		ropts = append(ropts, core.WithSpanObserver(report.TrialSpanObserver(rec, campRoot, true)))
	}

	label := fmt.Sprintf("%s/%s/%v", c.Suite.Name, c.Model.Cfg.Name, c.Fault)

	var srv *report.Server
	if f.httpAddr != "" {
		srv = report.NewServer(label, tel)
		ln := listen(f.httpAddr)
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
			if f.progress {
				fmt.Fprintf(os.Stderr, "llmfi: baseline ready (%d instances)\n", len(e.Baseline.Instances))
			}
		case core.Progress:
			lastProg = e
			if f.progress {
				fmt.Fprintf(os.Stderr, "\r%-100s", report.ProgressLine(label, e))
			}
		case core.CampaignDone:
			final = e
		}
	}
	if f.progress {
		// Clear the carriage-return line, then leave a durable summary in
		// the scrollback (the CR line would be clobbered by whatever
		// prints next — e.g. the detection summary).
		fmt.Fprintf(os.Stderr, "\r%-100s\r", "")
		if lastProg.Total > 0 {
			fmt.Fprintln(os.Stderr, report.SummaryLine(label, lastProg))
		}
	}
	closeRecords(traceW, "trace records", f.tracePath)
	if rec.Enabled() {
		rec.Record(obs.NewSpan(campRoot, "", "campaign", campStart, time.Since(campStart),
			obs.Str("label", label), obs.Int("trials", int64(c.Trials))))
	}

	if err := writeFile(f.telemetry, func(w io.Writer) error { return report.WriteTelemetryJSON(w, tel.Snapshot()) }); err != nil {
		log.Print(err)
	}
	if errors.Is(final.Err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "llmfi: interrupted")
		if saveTo != "" {
			fmt.Fprintf(os.Stderr, "llmfi: partial results saved; resume with -resume %s\n", saveTo)
		}
	}
	if final.Err != nil {
		return final.Err
	}
	return f.emitResult(stdout, final.Result)
}

// listen binds addr, exiting if it cannot: like a flag value that names
// nothing, a mode cannot start without it.
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

// runCoordinator serves the fleet API on -addr and blocks until every
// trial is merged, then prints the campaign result exactly like a
// single-process run (the merge is bit-identical).
func runCoordinator(ctx context.Context, f *flags, rec *obs.Recorder, stdout io.Writer) error {
	c := f.campaign()
	co, err := fabric.NewCoordinator(fabric.CoordinatorConfig{
		Campaign:        c,
		LeaseTTL:        f.leaseTTL,
		LeaseTrials:     f.leaseN,
		CheckpointPath:  f.ckptPath,
		CheckpointEvery: f.ckptEvery,
		Recorder:        rec,
		ScrapeEvery:     f.scrapeEvery,
	})
	if err != nil {
		return err
	}
	if n := co.Restored(); n > 0 {
		fmt.Fprintf(os.Stderr, "llmfi: coordinator restored %d/%d trials from %s\n", n, c.Trials, f.ckptPath)
	}
	ln := listen(f.addr)
	defer serveOn(ln, co.Handler())()
	go co.RunScrapes(ctx)
	fmt.Fprintf(os.Stderr, "llmfi: coordinating %d trials on http://%s (join with llmfi worker; dashboard at /debug/fleet)\n", c.Trials, ln.Addr())

	res, err := co.Result(ctx)
	if errors.Is(err, context.Canceled) {
		if err := co.Checkpoint(); err != nil {
			log.Print(err)
		}
		done, total := co.Done()
		fmt.Fprintf(os.Stderr, "llmfi: coordinator interrupted with %d/%d trials merged\n", done, total)
		if f.ckptPath != "" {
			fmt.Fprintln(os.Stderr, "llmfi: restart the coordinator with the same flags to resume")
		}
	}
	if err != nil {
		return err
	}
	return f.emitResult(stdout, res)
}

// runWorker joins the coordinator at -url and executes leases until the
// campaign completes. With -http, the worker serves its own /metrics
// there and advertises the address at join so the coordinator's fan-in
// scrapes it into the llmfi_fleet_* families.
func runWorker(ctx context.Context, f *flags, rec *obs.Recorder, _ io.Writer) error {
	cfg := fabric.WorkerConfig{
		Campaign:    f.campaign(),
		Coordinator: f.url,
		Name:        f.name,
		Logf:        log.Printf,
		Recorder:    rec,
	}
	var ln net.Listener
	if f.httpAddr != "" {
		ln = listen(f.httpAddr)
		cfg.HTTPAddr = advertiseURL(ln.Addr())
	}
	wk, err := fabric.NewWorker(cfg)
	if err != nil {
		return err
	}
	if ln != nil {
		defer serveOn(ln, wk.Handler())()
		fmt.Fprintf(os.Stderr, "llmfi: worker metrics on %s/metrics\n", cfg.HTTPAddr)
	}
	err = wk.Run(ctx)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "llmfi: worker interrupted after %d trials (outstanding leases will be reissued)\n", wk.Executed())
	}
	return err
}

// runServe exposes the model behind the live generate endpoint on the
// continuous-batching engine and blocks until SIGINT, then drains every
// in-flight request before returning (Engine.Run's graceful-drain
// contract).
func runServe(ctx context.Context, f *flags, rec *obs.Recorder, _ io.Writer) error {
	suite, m := f.model()
	var inj *serve.InjectConfig
	kind := "clean"
	if f.inject {
		inj = &serve.InjectConfig{Fault: parseName("fault model", f.faultName, faults.Models...),
			Surfaces: f.surfaceList(), Seed: f.seed, ABFT: f.protection()}
		kind = fmt.Sprintf("fault campaign: %v over %d surfaces", inj.Fault, len(inj.Surfaces))
		if inj.ABFT != nil {
			kind += ", abft armed"
		}
	}
	e, err := serve.NewEngine(serve.Config{
		Model: m, Vocab: suite.Vocab, Width: f.streams, SLO: f.slo, Inject: inj,
		Recorder: rec,
	})
	if err != nil {
		return err
	}
	ln := listen(f.addr)
	defer serveOn(ln, e.Handler())()
	fmt.Fprintf(os.Stderr, "llmfi: serving %s/generate /healthz /metrics /debug/fleet on http://%s (%s; SIGINT drains)\n",
		report.APIVersion, ln.Addr(), kind)
	if err := e.Run(ctx); err != nil {
		return err
	}
	s := e.Metrics().Snapshot()
	var total int64
	for _, n := range s.Requests {
		total += n
	}
	fmt.Fprintf(os.Stderr, "llmfi: drained: %d requests finished, %d tokens generated, %d SLO violations\n",
		total, s.Tokens, s.SLOViolations)
	return nil
}

// runLoadgen fires deterministic request streams at the serve endpoint
// at -url, drawing prompts from the suite (the server must be built from
// the same -suite for the vocabulary to round-trip), and prints the
// operator-facing summary. It builds no model: the server holds it.
func runLoadgen(ctx context.Context, f *flags, _ *obs.Recorder, stdout io.Writer) error {
	suite := f.suite()
	cfg := loadgen.Config{
		Streams: f.streams, Requests: f.requests, MaxNew: f.maxNew,
		Deadline: f.reqDL, Seed: f.seed, SLO: f.slo,
		Prompts: make([][]int, len(suite.Instances)),
	}
	for i, inst := range suite.Instances {
		cfg.Prompts[i] = inst.Prompt
	}
	tgt := &loadgen.HTTPTarget{Base: strings.TrimRight(f.url, "/"), Vocab: suite.Vocab}
	st, err := loadgen.Run(ctx, tgt, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loadgen: %d requests over %d streams against %s\n",
		cfg.Requests, cfg.Streams, tgt.Base)
	fmt.Fprintf(stdout, "  status: ok %d, deadline %d, canceled %d, failed %d\n",
		st.OK, st.DeadlineExceeded, st.Canceled, st.Failed)
	fmt.Fprintf(stdout, "  latency: p50 %v  p90 %v  p99 %v  max %v\n", st.P50, st.P90, st.P99, st.Max)
	if cfg.SLO > 0 {
		fmt.Fprintf(stdout, "  slo %v: %d violations (%.1f%%)\n",
			cfg.SLO, st.SLOViolations, 100*float64(st.SLOViolations)/float64(cfg.Requests))
	}
	if st.Injected > 0 {
		fmt.Fprintf(stdout, "  campaign: injected %d, fired %d\n", st.Injected, st.Fired)
	}
	for _, resp := range st.Responses {
		if resp.Err != nil && !errors.Is(resp.Err, context.DeadlineExceeded) && !errors.Is(resp.Err, context.Canceled) {
			return fmt.Errorf("llmfi: request %s failed: %w", resp.ID, resp.Err)
		}
	}
	return nil
}

// surfaceList reads the -surfaces list ("all" = every surface).
func (f *flags) surfaceList() []faults.Surface {
	if f.surfaces == "" || f.surfaces == "all" {
		return faults.Surfaces
	}
	var out []faults.Surface
	for _, name := range strings.Split(f.surfaces, ",") {
		sf, err := faults.ParseSurface(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, sf)
	}
	return out
}

// recorder wires -spans/-span-sample into mode m's span recorder.
// Without -spans, a dashboard-backed mode still gets an in-memory
// recorder so /debug/fleet shows recent spans and fleet traces stitch;
// the offline campaign gets a nil (disabled) recorder instead — the
// default campaign path carries zero tracing overhead.
func (f *flags) recorder(m mode) (*obs.Recorder, *obs.SpanWriter) {
	if m.service == "" || f.spansPath == "" && m.name == "" {
		return nil, nil
	}
	cfg := obs.Config{Service: m.service, Sample: f.spanN, Recent: 128}
	var sw *obs.SpanWriter
	if f.spansPath != "" {
		var err error
		if sw, err = obs.OpenSpans(f.spansPath); err != nil {
			log.Fatal(err)
		}
		cfg.Sink = sw.Write
	}
	return obs.NewRecorder(cfg), sw
}

// closeRecords flushes a JSONL export and reports how many records it
// holds. Safe on a nil writer (the export is off).
func closeRecords[T any](w *obs.RecordWriter[T], what, path string) {
	if w == nil {
		return
	}
	n := w.Count()
	if err := w.Close(); err != nil {
		log.Print(err)
		return
	}
	fmt.Fprintf(os.Stderr, "llmfi: wrote %d %s to %s\n", n, what, path)
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

// emitResult prints a campaign's result and writes its CSVs. The bare
// command and the coordinator both end here, so a fleet's stdout and
// CSVs are byte-identical to one process's.
func (f *flags) emitResult(stdout io.Writer, res *core.Result) error {
	printResult(stdout, res)
	return errors.Join(
		writeFile(f.csvTrials, func(w io.Writer) error { return report.WriteTrialsCSV(w, res) }),
		writeFile(f.csvSum, func(w io.Writer) error { return report.WriteSummaryCSV(w, res) }))
}

// writeFile creates path, unless it is empty (the export is off), and
// fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(out), out.Close())
}

func (f *flags) campaign() core.Campaign {
	suite, m := f.model()
	opts := []core.Option{
		core.WithWorkers(f.workers),
		core.WithDecodeBatch(f.decodeBatch),
		core.WithGen(gen.Settings{NumBeams: f.beams}),
		core.WithReasoningOnly(f.reasoning),
	}
	if f.gateOnly {
		opts = append(opts, core.WithFilter(faults.GateOnly))
	}
	if prot := f.protection(); prot != nil {
		opts = append(opts, core.WithABFT(*prot))
	}
	return core.New(m, suite, parseName("fault model", f.faultName, faults.Models...), f.trials, f.seed, opts...)
}

func (f *flags) model() (*tasks.Suite, *model.Model) {
	suite := f.suite()
	var m *model.Model
	var err error
	switch f.modelName {
	case "QwenS", "LlamaS", "FalconS", "moe":
		if suite.Vocab.Size() != tasks.GeneralVocab().Size() {
			log.Fatalf("profile models use the general vocabulary; suite %s needs a trained checkpoint (try -list)", suite.Name)
		}
		m, err = pretrained.ProfileModel(f.modelName, f.seed)
	default:
		m, err = pretrained.NewLoader(f.dir).Load(f.modelName)
	}
	if err != nil {
		log.Fatal(err)
	}
	if f.dtypeName != "" {
		dt := parseName("dtype", f.dtypeName, numerics.FP16, numerics.FP32, numerics.BF16)
		if m, err = model.WithDType(m, dt); err != nil {
			log.Fatal(err)
		}
	}
	return suite, m
}

func (f *flags) suite() *tasks.Suite {
	s, err := pretrained.Suite(f.suiteName, f.seed, f.instances)
	if err != nil {
		log.Fatalf("%v (try -list)", err)
	}
	return s
}

// protection reads the ABFT flags: nil when neither -abft nor -abft-all
// arms the checker.
func (f *flags) protection() *abft.Protection {
	if !f.abft && !f.abftAll {
		return nil
	}
	pol, err := mitigate.ParsePolicy(f.abftPol)
	if err != nil {
		log.Fatal(err)
	}
	return &abft.Protection{Tol: f.abftTol, Policy: pol, AllLayers: f.abftAll}
}

// parseName returns the member of all whose name is name, ignoring case.
func parseName[T fmt.Stringer](what, name string, all ...T) T {
	i := slices.IndexFunc(all, func(v T) bool { return strings.EqualFold(v.String(), name) })
	if i < 0 {
		log.Fatalf("unknown %s %q", what, name)
	}
	return all[i]
}

func printResult(w io.Writer, res *core.Result) {
	c := res.Campaign
	fmt.Fprintf(w, "campaign: %s on %s under %v, %d trials, seed %d\n\n",
		c.Model.Cfg.Name, c.Suite.Name, c.Fault, len(res.Trials), c.Seed)

	fmt.Fprintln(w, "fault-free baseline:")
	for _, k := range c.Suite.Metrics {
		fmt.Fprintf(w, "  %-12s %.4f\n", k, res.Baseline.MetricMeans[k])
	}
	fmt.Fprintf(w, "  %-12s %.4f\n\n", "gold-acc", res.Baseline.GoldAccuracy)

	t := report.NewTable("Metric", "P_fault", "NormPerf", "95% CI")
	for _, k := range c.Suite.Metrics {
		r := res.Normalized(k)
		t.Row(string(k), res.MetricMean(k), r.Value, fmt.Sprintf("[%.4f, %.4f]", r.Lo, r.Hi))
	}
	fmt.Fprintln(w, t.String())

	if c.ABFT != nil {
		d := res.Detection()
		fmt.Fprintf(w, "abft: %d checks, %d flagged; recall %.1f%% (%d/%d fired), false positives %d, cascaded %d\n",
			d.Checks, d.Flagged, 100*d.Recall(), d.Detected, d.Fired, d.FalsePositives, d.Cascaded)
		if d.Corrected+d.Skipped > 0 {
			fmt.Fprintf(w, "abft: corrected %d rows, skipped (zeroed) %d rows\n", d.Corrected, d.Skipped)
		}
	}

	tally := res.Tally()
	fmt.Fprintf(w, "outcomes: Masked %d (%.1f%%), SDC-subtle %d, SDC-distorted %d; fired %.1f%%\n",
		tally.Masked, 100*res.MaskedRate(), tally.Subtle, tally.Distorted, 100*res.FiredRate())
	if c.Model.Cfg.IsMoE() {
		fmt.Fprintf(w, "expert selection changed: %.1f%%\n", 100*res.ExpertChangedRate())
	}

	buckets := res.BitBreakdown()
	if len(buckets) > 0 {
		fmt.Fprintln(w, "\nSDCs by highest flipped bit:")
		bt := report.NewTable("Bit", "Trials", "Subtle", "Distorted")
		for _, b := range buckets {
			bt.Row(b.Bit, b.Trials, b.Subtle, b.Distorted)
		}
		fmt.Fprintln(w, bt.String())
	}
}

func printInventory(w io.Writer) {
	fmt.Fprintln(w, "suites:")
	for _, s := range []string{"mmlu", "arc", "truthfulqa", "winogrande", "hellaswag"} {
		fmt.Fprintf(w, "  %-12s multiple-choice, models: QwenS LlamaS FalconS moe\n", s)
	}
	fmt.Fprintln(w, "  gsm8k        generative math (+gsm8k-direct), models: math-qwens math-falcons")
	fmt.Fprintln(w, "  wmt16        translation, models: wmt-qwens wmt-llamas wmt-alma")
	fmt.Fprintln(w, "  xlsum        summarization, models: xlsum-llamas xlsum-qwens xlsum-summarizer")
	fmt.Fprintln(w, "  squadv2      QA, models: squad-llamas squad-qwens squad-falcons")
	fmt.Fprintln(w, "  wmt16-like   self-referential generative, models: QwenS LlamaS FalconS moe")
	fmt.Fprintln(w, "  squad-like   self-referential generative, models: QwenS LlamaS FalconS moe")
	fmt.Fprintln(w, "\ncheckpoints (built into the binary; regenerate with cmd/pretrain, then rebuild):")
	for _, j := range pretrained.Jobs() {
		ft := ""
		if j.Base != "" {
			ft = " (fine-tuned from " + j.Base + ")"
		}
		fmt.Fprintf(w, "  %-18s task %s%s\n", j.Name, j.Task, ft)
	}
}
