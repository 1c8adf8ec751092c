// Command benchmark is llmfi's one benchmark: six named workloads, the
// end-to-end metrics a user of the campaign runtime, the fabric and the
// serving engine sees, and — on a traced run — where each layer spent
// the time. README.md has the tables; BENCHMARK.json is the contract a
// driver runs it by.
//
//	go run ./benchmark -trace 1 -out A.json      # all six, plain and traced, one report
//	go run ./benchmark --workload serve_clean --seed 7 --seconds 8 --trace 0
//	go run ./benchmark -compare A.json B.json
//
// Every layer is measured from outside: by timing calls into its public
// functions and by reading instruments that are already public.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // how long the timed window lasts
	traced   bool
	// traceOut is the directory a traced run writes its spans into.
	traceOut string
	// div divides every operation count; the smoke test runs at 1/100.
	div int
	// setups is how often the set-up is repeated; setup_s is the median.
	setups int
	// micro is the time budget of one direct-call measurement.
	micro time.Duration
}

func (c config) scaled(n int) int {
	if n /= c.div; n < 1 {
		return 1
	}
	return n
}

// report is what one run of one workload measured.
type report struct {
	attempted, failed int
	// errs are the output checks that failed; any makes the run incorrect.
	errs []string
	// chunkOps is the fixed operation count of one timed chunk, chunks
	// how many ran, wall the length of the timed window.
	chunkOps, chunks int
	wall             time.Duration
	// chunkRates are the untraced chunks' operation rates, in run order.
	chunkRates []float64
	e2e, layer values
}

func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// workloadDef is one named workload; BENCHMARK.json says why each exists.
type workloadDef struct {
	name string
	run  func(cfg config, tr *tracer) (*report, error)
}

var workloads = []workloadDef{
	{"campaign_serial", campaignSerial.run},
	{"campaign_batched", campaignBatched.run},
	{"campaign_mem_abft", campaignMemABFT.run},
	{"fabric_2w", fabricWorkload},
	{"serve_clean", serveClean.run},
	{"serve_faults", serveFaults.run},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// chunkStat is one timed chunk: a fixed number of operations run back to
// back. Every end-to-end rate and timing is read per chunk and reported
// as the quartile on the fast side over the chunks (see fastQuartile).
type chunkStat struct {
	ops, tokens int
	wall        time.Duration
	traced      bool
	// timing holds a serving chunk's own readings of the request timings.
	timing values
}

func (c chunkStat) reading(name string) float64 {
	switch name {
	case "ops_per_s":
		return float64(c.ops) / c.wall.Seconds()
	case "tokens_per_s":
		return float64(c.tokens) / c.wall.Seconds()
	}
	return c.timing[name]
}

// timed runs chunks until the window has passed; input numbers the
// inputs a chunk is to use. On a traced run chunks come in pairs on the
// same inputs, the second with spans on, so both kinds see the same work
// and machine state and their difference is the tracing overhead.
func timed(cfg config, run func(input int, traced bool) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; ; i++ {
		input, traced := i, false
		if cfg.traced {
			input, traced = i/2, i%2 == 1
		}
		if err := run(input, traced); err != nil {
			return 0, err
		}
		if time.Since(start) >= cfg.window && (!cfg.traced || i >= 1) {
			return time.Since(start), nil
		}
	}
}

// readings collects one metric over the traced or the untraced chunks.
func readings(chunks []chunkStat, name string, traced bool) []float64 {
	var out []float64
	for _, c := range chunks {
		if c.traced == traced {
			out = append(out, c.reading(name))
		}
	}
	return out
}

// settle fills the metrics every workload reads the same way from its
// chunks: the operation rate (and the named timings of a serving
// workload) from the untraced chunks, the tracing overhead from the
// traced ones next to them.
func (r *report) settle(chunks []chunkStat, tr *tracer, timings ...string) {
	for _, d := range endToEnd {
		if d.name == "ops_per_s" || slices.Contains(timings, d.name) {
			r.e2e[d.name] = fastQuartile(readings(chunks, d.name, false), d.higher)
		}
	}
	r.chunkRates = readings(chunks, "ops_per_s", false)
	if traced := readings(chunks, "ops_per_s", true); len(traced) > 0 {
		r.layer["obs.overhead_frac"] = 1 - fastQuartile(traced, true)/r.e2e["ops_per_s"]
		var n int
		for _, c := range chunks {
			if c.traced {
				n += c.ops
			}
		}
		r.layer["obs.spans_per_op"] = ratio(float64(tr.count()), float64(n))
	}
	for _, c := range chunks {
		r.attempted += c.ops
	}
	r.chunks = len(chunks)
}

// medianSetup sets up n times, tearing down all but the last, and
// returns the last state with the median set-up time in seconds.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		state T
		secs  []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(state)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, err
		}
		state = s
		secs = append(secs, time.Since(start).Seconds())
	}
	return state, median(secs), nil
}

// runWorkload runs one workload in this process and completes its
// report with the metrics every workload reads the same way.
func runWorkload(cfg config) (*report, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	rep, err := w.run(cfg, tr)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_rss_mb"] = rss
	rep.e2e["failed_share"] = ratio(float64(rep.failed), float64(rep.attempted))
	if cfg.traced {
		if err := micro(cfg, tr, rep.layer); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.traceOut, "spans-"+cfg.workload+".jsonl")); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return rep, nil
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance precedes the result line, for the report of a full run. It
// carries every end-to-end metric the workload reports, the result line
// of a plain run only those every workload does.
type provenance struct {
	ChunkOps   int       `json:"chunk_ops"`
	Chunks     int       `json:"chunks"`
	WallS      float64   `json:"wall_s"`
	ChunkRates []float64 `json:"chunk_ops_per_s"`
	EndToEnd   values    `json:"end_to_end"`
	Errors     []string  `json:"errors,omitempty"`
}

// emit prints the run: one line per metric for a reader, then the
// provenance line and the result line for a program.
func emit(cfg config, rep *report) error {
	line := resultLine{
		Correct:   len(rep.errs) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	fmt.Printf("%s seed=%d trace=%t: %d ops in %d chunks of %d, %.2fs timed\n",
		cfg.workload, cfg.seed, cfg.traced, rep.attempted, rep.chunks, rep.chunkOps, rep.wall.Seconds())
	for _, d := range endToEnd {
		if !d.reportedBy(cfg.workload) {
			continue
		}
		v, ok := rep.e2e[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report %s", cfg.workload, d.name)
		}
		fmt.Printf("  %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	if cfg.traced {
		for _, d := range perLayer {
			fmt.Printf("  %-34s %14.6g %-8s -> %s\n", d.name, rep.layer[d.name], d.unit, d.moves)
		}
	}
	for _, d := range resultMetrics(cfg.traced) {
		v, ok := rep.e2e[d.name]
		if !ok {
			v = rep.layer[d.name]
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for _, e := range rep.errs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
	prov, err := json.Marshal(provenance{
		ChunkOps: rep.chunkOps, Chunks: rep.chunks, WallS: rep.wall.Seconds(),
		ChunkRates: rep.chunkRates, EndToEnd: rep.e2e, Errors: rep.errs,
	})
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", prov)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their output check", cfg.workload, rep.failed, rep.attempted)
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all: each in a child process, into one report")
		seed     = flag.Uint64("seed", 2025, "seed of every generated input (suite, campaign, request mix, injection); model weights are fixed")
		seconds  = flag.Float64("seconds", 12, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run: spans on, per-layer metrics out (with -workload all: after the plain runs)")
		traceOut = flag.String("trace-out", "", "directory for the span JSONL of a traced run (default a new temporary directory)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		out      = flag.String("out", "", "with -workload all: write the report here")
	)
	flag.Parse()

	// Two cores is what the reference box has; pinning keeps numbers from
	// bigger machines comparable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	err := run(*workload, *seed, *seconds, *trace != 0, *traceOut, *compare, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool, traceOut string, compare bool, out string) error {
	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}
	if traced && traceOut == "" {
		dir, err := os.MkdirTemp("", "llmfi-bench-")
		if err != nil {
			return err
		}
		traceOut = dir
		fmt.Fprintln(os.Stderr, "benchmark: spans go to", dir)
	}
	if workload == "all" {
		return runAll(seed, seconds, traced, traceOut, out)
	}
	cfg := config{
		workload: workload,
		seed:     seed,
		window:   time.Duration(seconds * float64(time.Second)),
		traced:   traced,
		traceOut: traceOut,
		div:      1,
		setups:   5,
		micro:    100 * time.Millisecond,
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	return emit(cfg, rep)
}
