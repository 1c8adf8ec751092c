package main

import (
	"encoding/json"
	"math"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestContractMatchesTables: BENCHMARK.json and the metric and workload
// tables of the program name the same things with the same units and
// directions, in the split resultMetrics makes.
func TestContractMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, spec []contractMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(spec), len(defs))
		}
		for i, d := range defs {
			if !name.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if i < len(spec) && spec[i] != (contractMetric{d.name, d.unit, better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %s [%s] better %s", kind, i, spec[i], d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", c.EndToEnd, resultMetrics(false))
	check("per_layer", c.PerLayer, resultMetrics(true))
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestMoves: every per-layer metric's prediction names end-to-end
// metrics on workloads that report them.
func TestMoves(t *testing.T) {
	e2e := map[string]metricDef{}
	for _, d := range endToEnd {
		e2e[d.name] = d
	}
	for _, d := range perLayer {
		for _, target := range strings.Fields(d.moves) {
			metric, glob, _ := strings.Cut(target, "@")
			def, ok := e2e[metric]
			if !ok {
				t.Errorf("%s moves %s: no such end-to-end metric", d.name, target)
				continue
			}
			matched := 0
			for _, w := range workloads {
				if ok, _ := path.Match(glob, w.name); ok {
					matched++
					if !def.reportedBy(w.name) {
						t.Errorf("%s moves %s: %s does not report %s", d.name, target, w.name, metric)
					}
				}
			}
			if matched == 0 {
				t.Errorf("%s moves %s: no such workload", d.name, target)
			}
		}
	}
}

// TestSmoke runs every workload at 1/100 of its size, plain and traced:
// every output check passes, a run reports exactly the end-to-end
// metrics its workload is listed for, a traced run only per-layer
// metrics the tables know.
func TestSmoke(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: w.name, seed: 7, window: time.Millisecond, traced: traced,
				traceOut: t.TempDir(), div: 100, setups: 1, micro: time.Millisecond,
			}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if rep.failed != 0 || len(rep.errs) != 0 || rep.attempted < 1 {
				t.Errorf("%s traced=%t: %d of %d failed: %v", w.name, traced, rep.failed, rep.attempted, rep.errs)
			}
			reported := 0
			for _, d := range endToEnd {
				v, ok := rep.e2e[d.name]
				if ok {
					reported++
				}
				if ok != d.reportedBy(w.name) || math.IsNaN(v) || math.IsInf(v, 0) || (d.universal() && v <= 0) {
					t.Errorf("%s traced=%t: end-to-end metric %s = %v (reported: %t)", w.name, traced, d.name, v, ok)
				}
			}
			if reported != len(rep.e2e) {
				t.Errorf("%s traced=%t: reports end-to-end metrics the table does not know: %v", w.name, traced, rep.e2e)
			}
			for name, v := range rep.layer {
				if !known[name] || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%t: per-layer metric %s = %v (known: %t)", w.name, traced, name, v, known[name])
				}
			}
			if traced {
				if _, ok := rep.layer["obs.overhead_frac"]; !ok {
					t.Errorf("%s: traced run reported no obs.overhead_frac", w.name)
				}
				if _, err := os.Stat(filepath.Join(cfg.traceOut, "spans-"+w.name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestSpread pins the quartile rule to Python's statistics.quantiles.
func TestSpread(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11}, (12.0 - 10.0) / 11},
		{[]float64{5}, 0},
	} {
		if got := spread(tc.vals); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.vals, got, tc.want)
		}
	}
}

// TestCompare: a median worse by more than the bound is a regression, a
// spread wider than the bound leaves the row unresolved, an exact ratio
// regresses on any worsening, and reports that cannot be compared are
// refused.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// write makes a report in which every metric reads 100 on every run,
	// exact ratios 0.5, but for what edit changes on campaign_mem_abft.
	write := func(name string, edit func(w *workloadReport)) string {
		rep := fullReport{Schema: reportSchema, Workloads: map[string]*workloadReport{}}
		for _, w := range workloads {
			wr := &workloadReport{ChunkOps: 600, PerLayer: values{"faults.fired": 3}}
			for i := 0; i < plainRuns; i++ {
				m := values{}
				for _, d := range endToEnd {
					if d.reportedBy(w.name) {
						m[d.name] = 100
						if d.bound == 0 {
							m[d.name] = 0.5
						}
					}
				}
				wr.Runs = append(wr.Runs, runRecord{Attempted: 100, Metrics: m})
			}
			if w.name == "campaign_mem_abft" && edit != nil {
				edit(wr)
			}
			rep.Workloads[w.name] = wr
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(dir, name)
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return file
	}
	set := func(metric string, vals ...float64) func(*workloadReport) {
		return func(w *workloadReport) {
			for i, v := range vals {
				w.Runs[i].Metrics[metric] = v
			}
		}
	}
	base := write("base.json", nil)
	for _, tc := range []struct {
		name string
		edit func(*workloadReport)
		ok   bool
	}{
		{"same", set("ops_per_s", 98, 100, 102), true},
		{"slower", set("ops_per_s", 90, 91, 89), false},
		{"too noisy to resolve", set("ops_per_s", 60, 80, 100), true},
		{"faster and noisy", set("ops_per_s", 120, 160, 200), true},
		{"an operation failed", set("failed_share", 0.5, 0.5, 0.51), true}, // median unchanged
		{"operations failed", set("failed_share", 0.6, 0.6, 0.6), false},
		{"recall fell", set("sdc_recall", 0.4, 0.4, 0.4), false},
		{"recall rose", set("sdc_recall", 0.6, 0.6, 0.6), true},
		{"exact count changed", func(w *workloadReport) { w.PerLayer["faults.fired"] = 4 }, false},
		{"other operation counts", func(w *workloadReport) { w.ChunkOps = 300 }, false},
		{"a metric not measured", set("peak_rss_mb", 0, 0, 0), false},
		{"no runs", func(w *workloadReport) { w.Runs = nil }, false},
	} {
		err := compareReports(base, write("b.json", tc.edit))
		if (err == nil) != tc.ok {
			t.Errorf("%s: compare says %v", tc.name, err)
		}
	}
}
