// Command llmfi-vet runs the repository's invariant analyzers
// (internal/lint) over the given packages and exits non-zero on
// findings. It is the static half of the methodology's correctness
// story: determinism, hook purity, float64 checksum math, context-first cancellation, lock discipline
// (guardedby), atomic/plain access consistency (atomicmix), goroutine
// lifecycle (golife), and wire-schema drift (wireschema) are enforced
// before a campaign ever runs.
//
// Usage:
//
//	llmfi-vet [flags] [packages]
//
// With no packages, ./... is analyzed from the current directory.
// Findings print as file:line:col: [analyzer] message. Suppress a
// finding with //llmfi:allow <analyzer> <reason> on the offending line
// or the line directly above it; the reason is mandatory.
// -suppressions lists every allow in scope with its reason — the
// audited suppression budget in one command — and exits 1 if any allow
// is malformed.
//
// Exit codes: 0 no findings, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("llmfi-vet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	names := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	verbose := fs.Bool("v", false, "also report honored suppressions")
	supp := fs.Bool("suppressions", false, "list every //llmfi:allow with file:line, analyzer, and reason; exit 1 on malformed allows")
	dir := fs.String("C", ".", "directory to resolve packages from")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var sel []string
	if *names != "" {
		sel = strings.Split(*names, ",")
	}
	analyzers, err := lint.ByName(sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llmfi-vet:", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, err := lint.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "llmfi-vet:", err)
		return 2
	}
	if *supp {
		allows, problems := lint.Audit(pkgs, analyzers)
		for _, a := range allows {
			fmt.Printf("%s:%d: [%s] %s\n", a.Pos.Filename, a.Pos.Line, a.Analyzer, a.Reason)
		}
		for _, d := range problems {
			fmt.Println(d)
		}
		if n := len(problems); n > 0 {
			fmt.Fprintf(os.Stderr, "llmfi-vet: %d malformed //llmfi:allow annotation(s)\n", n)
			return 1
		}
		return 0
	}
	res := lint.Run(pkgs, analyzers)
	for _, d := range res.Findings {
		fmt.Println(d)
	}
	if *verbose {
		for _, d := range res.Suppressed {
			fmt.Fprintf(os.Stderr, "suppressed: %s\n", d)
		}
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "llmfi-vet: %d finding(s) in %d package(s)\n", n, len(pkgs))
		return 1
	}
	return 0
}
