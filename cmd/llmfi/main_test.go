package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// flagNames lists the flags mode m registers.
func flagNames(m mode) map[string]bool {
	fs := flag.NewFlagSet(m.name, flag.ContinueOnError)
	m.flags(new(flags), fs)
	names := map[string]bool{}
	fs.VisitAll(func(fl *flag.Flag) { names[fl.Name] = true })
	return names
}

// TestModeFlagSets pins which flags each mode parses: every mode accepts
// its own flags and refuses one another mode reads, the mode flags the
// subcommands replaced are gone, a stray argument is refused rather than
// ignored, and the bare command, coordinator and worker share the
// campaign-definition group verbatim.
func TestModeFlagSets(t *testing.T) {
	undefined := func(name string) string { return "flag provided but not defined: -" + name }
	for _, tc := range []struct {
		args    []string
		mode    string
		wantErr string // "" when every flag must parse
	}{
		{[]string{"-suite", "mmlu", "-model", "QwenS", "-trials", "9", "-decode-batch", "4", "-checkpoint", "c", "-resume", "c",
			"-csv", "t.csv", "-csv-summary", "s.csv", "-trace", "t.jsonl", "-spans", "s.jsonl", "-http", ":0", "-progress"}, "", ""},
		{[]string{"serve", "-addr", ":0", "-model", "QwenS", "-suite", "wmt16-like", "-streams", "4", "-slo", "1s",
			"-inject", "-surfaces", "kv", "-fault", "1bit-comp", "-abft", "-abft-all", "-spans", "s.jsonl"}, "serve", ""},
		{[]string{"loadgen", "-url", "http://h:1", "-suite", "wmt16-like", "-instances", "4", "-seed", "7", "-streams", "2",
			"-requests", "8", "-max-new", "3", "-req-deadline", "1ms", "-slo", "1s"}, "loadgen", ""},
		{[]string{"coordinator", "-addr", ":0", "-trials", "9", "-checkpoint", "c", "-checkpoint-every", "8", "-lease-trials", "4",
			"-lease-ttl", "1s", "-scrape-every", "1s", "-csv", "t.csv", "-csv-summary", "s.csv", "-spans", "s.jsonl"}, "coordinator", ""},
		{[]string{"worker", "-url", "http://h:1", "-name", "w1", "-http", ":0", "-trials", "9", "-workers", "2", "-spans", "s.jsonl"}, "worker", ""},

		{[]string{"serve", "-checkpoint", "x"}, "serve", undefined("checkpoint")},
		{[]string{"serve", "-csv", "x.csv"}, "serve", undefined("csv")},
		{[]string{"serve", "-trace", "x.jsonl"}, "serve", undefined("trace")},
		{[]string{"worker", "-trace", "x.jsonl"}, "worker", undefined("trace")},
		{[]string{"worker", "-csv", "x.csv"}, "worker", undefined("csv")},
		{[]string{"coordinator", "-resume", "x"}, "coordinator", undefined("resume")},
		{[]string{"coordinator", "-http", ":0"}, "coordinator", undefined("http")},
		{[]string{"loadgen", "-model", "QwenS"}, "loadgen", undefined("model")},
		{[]string{"loadgen", "-abft"}, "loadgen", undefined("abft")},
		{[]string{"-serve", ":9419"}, "", undefined("serve")},
		{[]string{"-loadgen", "http://h:1"}, "", undefined("loadgen")},
		{[]string{"-coordinator", ":8080"}, "", undefined("coordinator")},
		{[]string{"-worker", "http://h:1"}, "", undefined("worker")},
		{[]string{"-streams", "8"}, "", undefined("streams")},
		{[]string{"-suite", "mmlu", "serve"}, "", `llmfi: unexpected argument "serve"`},
		{[]string{"sevre", "-addr", ":0"}, "", `llmfi: unexpected argument "sevre"`},
	} {
		m, _, err := parse(tc.args, flag.ContinueOnError, io.Discard)
		if m.name != tc.mode {
			t.Errorf("%q selected mode %q, want %q", tc.args, m.name, tc.mode)
		}
		if got := fmt.Sprint(err); tc.wantErr == "" && err != nil || tc.wantErr != "" && got != tc.wantErr {
			t.Errorf("%q: error %v, want %q", tc.args, err, tc.wantErr)
		}
	}

	want := map[string]int{"": 31, "serve": 18, "loadgen": 9, "coordinator": 27, "worker": 22}
	fs := flag.NewFlagSet("campaign-definition", flag.ContinueOnError)
	new(flags).campaignFlags(fs)
	for _, m := range modes {
		names := flagNames(m)
		if len(names) != want[m.name] {
			t.Errorf("mode %q parses %d flags, want %d", m.name, len(names), want[m.name])
		}
		if m.name == "serve" || m.name == "loadgen" {
			continue
		}
		fs.VisitAll(func(fl *flag.Flag) {
			if !names[fl.Name] {
				t.Errorf("mode %q lacks campaign-definition flag -%s", m.name, fl.Name)
			}
		})
	}
}

// TestLoadgenAgainstServe drives an in-process engine through its wire
// handler with llmfi loadgen given only the suite flags and -url: it
// builds no model, and requests whose deadline expires on the server
// count in the deadline column without failing the run.
func TestLoadgenAgainstServe(t *testing.T) {
	suiteArgs := []string{"-suite", "wmt16-like", "-instances", "4", "-seed", "7"}
	_, sf, err := parse(append([]string{"serve", "-model", "QwenS"}, suiteArgs...), flag.ContinueOnError, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	suite, m := sf.model()
	e, err := serve.NewEngine(serve.Config{Model: m, Vocab: suite.Vocab, Width: sf.streams})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx) }()
	ts := httptest.NewServer(e.Handler())
	defer func() {
		ts.Close()
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	for _, tc := range []struct {
		extra []string
		want  string
	}{
		{nil, "status: ok 64, deadline 0, canceled 0, failed 0"},
		{[]string{"-req-deadline", "1ms"}, ", canceled 0, failed 0"},
	} {
		args := append(append([]string{"loadgen", "-url", ts.URL}, suiteArgs...), tc.extra...)
		_, lf, err := parse(args, flag.ContinueOnError, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runLoadgen(ctx, lf, nil, &out); err != nil {
			t.Fatalf("%q: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%q: summary lacks %q:\n%s", args, tc.want, out.String())
		}
	}
}
