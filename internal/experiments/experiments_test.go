package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/trace"
)

// tinyCfg keeps experiment tests fast.
var tinyCfg = Config{Trials: 12, Instances: 3, Seed: 11}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		// every paper artifact...
		"table1", "table2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig20", "fig21",
		// ...plus the observation-focused, extension, and ablation studies.
		"obs4", "ext1", "ext2", "abl1", "abl2", "abl3",
		// ABFT detection-layer extension (PR 3).
		"fig_abft",
		// Propagation-trace observability extension (PR 4).
		"fig_propagation",
		// Serving-under-faults extension (PR 8).
		"fig_serving",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(have) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(have), len(want))
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestTable2Static(t *testing.T) {
	e, err := Get("table2")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Run(context.Background(), tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FP16", "BF16", "FP32", "6.55e+04"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
	if out.Numbers["table2.FP16.expbits"] != 5 {
		t.Error("FP16 exponent bits wrong")
	}
}

func TestFig13Shapes(t *testing.T) {
	e, _ := Get("fig13")
	out, err := e.Run(context.Background(), tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	q := out.Numbers["fig13.QwenS.weight_std"]
	f := out.Numbers["fig13.FalconS.weight_std"]
	if !(q < f) {
		t.Errorf("QwenS std %.4f should be narrower than FalconS %.4f", q, f)
	}
}

func TestFig5ColumnPropagation(t *testing.T) {
	e, _ := Get("fig5")
	out, err := e.Run(context.Background(), tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The faulted layer shows a thin corruption; the next layer is fully
	// corrupted — the paper's central propagation asymmetry.
	if out.Numbers["fig5.faulted_layer_frac"] > 0.2 {
		t.Errorf("memory fault should corrupt ~1 column, got frac %.3f",
			out.Numbers["fig5.faulted_layer_frac"])
	}
	if out.Numbers["fig5.next_layer_frac"] < 0.9 {
		t.Errorf("next layer should be (nearly) fully corrupted, got %.3f",
			out.Numbers["fig5.next_layer_frac"])
	}
}

func TestFig6RowContainment(t *testing.T) {
	e, _ := Get("fig6")
	out, err := e.Run(context.Background(), tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Numbers["fig6.next_layer_frac"] > 0.5 {
		t.Errorf("computational fault should stay row-local, got %.3f",
			out.Numbers["fig6.next_layer_frac"])
	}
}

// TestProgressAndTraceReachEveryCampaign runs one of the experiments
// that used to start its campaign without Config.campaign: the progress
// writer and the trace sink cmd/figures wires must both hear from it.
func TestProgressAndTraceReachEveryCampaign(t *testing.T) {
	e, _ := Get("fig15")
	var progress bytes.Buffer
	traced := 0
	cfg := Config{Trials: 4, Instances: 2, Seed: 11, Progress: &progress, TraceEvery: 1,
		TraceSink: func(trace.Record) error { traced++; return nil }}
	if _, err := e.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "fig15") {
		t.Errorf("progress writer got %q, want fig15's status line", progress.String())
	}
	if traced != cfg.Trials {
		t.Errorf("trace sink got %d records, want %d", traced, cfg.Trials)
	}
}

func TestHash2Distinct(t *testing.T) {
	a := hash2("a", "b")
	b := hash2("ab")
	c := hash2("a", "b", "c")
	if a == b || a == c || b == c {
		t.Error("hash2 collisions on trivially different inputs")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Trials == 0 || c.Instances == 0 || c.Seed == 0 || c.Dir == "" {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
