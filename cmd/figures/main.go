// Command figures regenerates the paper's tables and figures from the
// reproduction library. Each experiment prints an ASCII rendering of the
// corresponding artifact plus its headline numbers.
//
//	figures -fig fig3 -trials 500 -instances 20
//	figures -fig table1 -progress
//	figures -fig fig_propagation -trace prop.jsonl
//	figures -all
//	figures -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	os.Exit(run())
}

// run is main minus os.Exit, so the trace writer's deferred flush runs
// on every path — including experiment errors and SIGINT.
func run() int {
	log.SetFlags(0)
	fig := flag.String("fig", "", "experiment id to run (fig3..fig21, table1, table2)")
	all := flag.Bool("all", false, "run every experiment")
	list := flag.Bool("list", false, "list experiment ids")
	trials := flag.Int("trials", 0, "injection trials per campaign (0 = default 120)")
	instances := flag.Int("instances", 0, "evaluation inputs per suite (0 = default 10)")
	seed := flag.Uint64("seed", 0, "campaign seed (0 = default)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	dir := flag.String("pretrained", "", "checkpoint directory (default: the checkpoints built into the binary)")
	progress := flag.Bool("progress", false, "print a live per-campaign progress line to stderr")
	tracePath := flag.String("trace", "", "write sampled propagation traces (JSONL) to this file")
	traceN := flag.Int("trace-sample", 16, "with -trace: trace every N-th trial of each campaign")
	flag.Parse()

	cfg := experiments.Config{
		Trials: *trials, Instances: *instances, Seed: *seed,
		Workers: *workers, Dir: *dir,
	}
	if *progress {
		cfg.Progress = os.Stderr
	}
	if *tracePath != "" {
		f, _, err := report.OpenTrace(*tracePath, false)
		if err != nil {
			log.Print(err)
			return 1
		}
		tw := report.NewTraceWriter(f)
		cfg.TraceEvery = *traceN
		cfg.TraceSink = tw.Write
		defer func() {
			if err := tw.Close(); err != nil {
				log.Print(err)
				return
			}
			fmt.Fprintf(os.Stderr, "figures: wrote %d trace records to %s\n", tw.Count(), *tracePath)
		}()
	}

	// SIGINT cancels the running experiment's campaigns promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s (%s)\n", e.ID, e.Title, e.PaperRef)
		}
	case *all:
		for _, e := range experiments.All() {
			if code := runOne(ctx, e, cfg); code != 0 {
				return code
			}
		}
	case *fig != "":
		e, err := experiments.Get(*fig)
		if err != nil {
			log.Print(err)
			return 1
		}
		return runOne(ctx, e, cfg)
	default:
		flag.Usage()
		return 2
	}
	return 0
}

func runOne(ctx context.Context, e experiments.Experiment, cfg experiments.Config) int {
	start := time.Now()
	out, err := e.Run(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "figures: %s interrupted\n", e.ID)
			return 130
		}
		log.Printf("%s: %v", e.ID, err)
		return 1
	}
	fmt.Printf("\n================ %s — %s (%s) ================\n\n", out.ID, e.Title, e.PaperRef)
	fmt.Println(out.Text)
	if len(out.Keys) > 0 {
		fmt.Println("key numbers:")
		for _, k := range out.Keys {
			fmt.Printf("  %-32s %.4f\n", k, out.Numbers[k])
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return 0
}
