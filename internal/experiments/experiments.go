// Package experiments implements every table and figure of the paper's
// evaluation as a runnable experiment: each one assembles the models,
// task suites, and fault-injection campaigns it needs, runs them, and
// renders the result as text plus a set of named key numbers used by
// EXPERIMENTS.md to compare against the paper.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pretrained"
	"repro/internal/report"
	"repro/internal/trace"
)

// Config scales an experiment run. Zero fields take defaults.
type Config struct {
	// Trials is the number of fault injections per campaign (the paper
	// uses 500–3000; figures here default to 120 for tractable CPU runs
	// — raise via cmd/figures -trials for tighter intervals).
	Trials int
	// Instances is the evaluation-subset size per suite (paper: 100
	// tinyBenchmarks inputs; default 10).
	Instances int
	Seed      uint64
	Workers   int
	// Dir is the pretrained-checkpoint directory ("" = the checkpoints
	// built into the binary).
	Dir string
	// Progress, when non-nil, receives a live single-line status update
	// (overwritten in place) for each long-running campaign. cmd/figures
	// wires stderr here behind -progress.
	Progress io.Writer
	// TraceEvery enables propagation tracing for every campaign an
	// experiment runs: each N-th trial's trace.Record goes to TraceSink,
	// when set, and is kept with the campaign's memo entry. cmd/figures
	// wires a report.TraceWriter here behind -trace. fig_propagation,
	// which reads traces itself, traces every trial of its campaigns
	// regardless of this setting.
	TraceEvery int
	TraceSink  func(trace.Record) error
}

func (c Config) withDefaults() Config {
	if c.Trials == 0 {
		c.Trials = 120
	}
	if c.Instances == 0 {
		c.Instances = 10
	}
	if c.Seed == 0 {
		c.Seed = 2025
	}
	return c
}

// loader returns the checkpoint loader for the config.
func (c Config) loader() *pretrained.Loader {
	return pretrained.NewLoader(c.Dir)
}

// campaignRun is one campaign as Config.campaign ran it: its Result,
// the records of the trials it traced (in trial order), and the wall
// time from its first trial to its last.
type campaignRun struct {
	*core.Result
	Records []trace.Record
	Wall    time.Duration
	fp      core.Fingerprint
}

// memoKey names a campaign within a process: the scope of the config
// that ran it, after defaults, and its label.
type memoKey struct {
	trials, instances int
	seed              uint64
	dir, label        string
}

var (
	memoMu sync.Mutex
	memo   = map[memoKey]*campaignRun{}
)

// campaign executes one fault-injection campaign on behalf of an
// experiment, through the streaming runner: traced when the config asks
// for it, with a live status line labelled after the campaign when there
// is a progress sink. Every campaign an experiment runs goes through
// here, so cmd/figures -progress and -trace reach every figure.
//
// A campaign runs once per process: a later call with the same config
// scope and label returns the first run — its records too, without
// sending them to TraceSink again — so figures that share a campaign
// (Figs. 3/4/11, 8/9/10, 7/12) share its run. A label names exactly one
// campaign: reusing it for a campaign with another Fingerprint is an
// error.
func (c Config) campaign(ctx context.Context, label string, camp core.Campaign) (*campaignRun, error) {
	d := c.withDefaults()
	key := memoKey{d.Trials, d.Instances, d.Seed, d.Dir, label}
	fp := camp.Fingerprint()
	memoMu.Lock()
	run, ok := memo[key]
	memoMu.Unlock()
	if ok {
		if run.fp != fp {
			return nil, fmt.Errorf("experiments: campaign %q ran as %+v, asked again as %+v", label, run.fp, fp)
		}
		return run, nil
	}

	var ropts []core.RunnerOption
	if c.TraceEvery > 0 {
		ropts = append(ropts, core.WithTrace(c.TraceEvery, c.TraceSink))
	}
	run = &campaignRun{fp: fp}
	var final core.CampaignDone
	for ev := range core.NewRunner(camp, ropts...).Stream(ctx) {
		switch e := ev.(type) {
		case core.TrialDone:
			if e.Trace != nil {
				run.Records = append(run.Records, *e.Trace)
			}
		case core.Progress:
			run.Wall = e.Elapsed
			if c.Progress != nil {
				fmt.Fprintf(c.Progress, "\r%-100s", report.ProgressLine(label, e))
			}
		case core.CampaignDone:
			final = e
		}
	}
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, "\r%-100s\r", "")
	}
	if final.Err != nil {
		return nil, final.Err
	}
	run.Result = final.Result
	sort.Slice(run.Records, func(i, j int) bool { return run.Records[i].Trial < run.Records[j].Trial })
	memoMu.Lock()
	memo[key] = run
	memoMu.Unlock()
	return run, nil
}

// Outcome is a completed experiment.
type Outcome struct {
	ID    string
	Title string
	// Text is the rendered figure/table.
	Text string
	// Numbers holds the headline quantities, keyed "<id>.<name>", for the
	// paper-vs-measured records in EXPERIMENTS.md.
	Numbers map[string]float64
	// Keys preserves insertion order of Numbers.
	Keys []string
}

func newOutcome(id, title string) *Outcome {
	return &Outcome{ID: id, Title: title, Numbers: map[string]float64{}}
}

func (o *Outcome) set(name string, v float64) {
	key := o.ID + "." + name
	if _, dup := o.Numbers[key]; !dup {
		o.Keys = append(o.Keys, key)
	}
	o.Numbers[key] = v
}

// Experiment binds a paper artifact to its reproduction. Run honors
// ctx cancellation: an interrupted experiment returns ctx.Err().
type Experiment struct {
	ID       string // "table1", "fig3", ...
	Title    string
	PaperRef string // section / observation reference
	Run      func(context.Context, Config) (*Outcome, error)
}

var (
	regMu    sync.Mutex
	registry = map[string]Experiment{}
	order    []string
)

func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
	order = append(order, e.ID)
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	regMu.Lock()
	defer regMu.Unlock()
	e, ok := registry[id]
	if !ok {
		ids := append([]string(nil), order...)
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
	}
	return e, nil
}

// Run looks up and executes one experiment under ctx.
func Run(ctx context.Context, id string, cfg Config) (*Outcome, error) {
	e, err := Get(id)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, cfg)
}

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}
