package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// reportSchema versions the report file; -compare refuses another one.
const reportSchema = 2

// plainRuns is how many untraced runs of each workload a report holds;
// their spread decides between ok and unresolved in -compare.
const plainRuns = 3

// fullReport is what a run of all workloads writes: where and on what it
// ran, and per workload every plain run's end-to-end metrics and the
// traced run's per-layer metrics.
type fullReport struct {
	Schema    int                        `json:"schema"`
	Env       environment                `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type workloadReport struct {
	ChunkOps int         `json:"chunk_ops"`
	Runs     []runRecord `json:"runs"`
	PerLayer values      `json:"per_layer,omitempty"`
}

// runRecord is one plain run: its operation counts and every end-to-end
// metric the workload reports.
type runRecord struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Chunks    int     `json:"chunks"`
	WallS     float64 `json:"wall_s"`
	Metrics   values  `json:"metrics"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // a checkout that is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runChild runs one workload in a fresh process of this binary and
// parses the provenance and result lines that end its output. A run
// whose output checks failed is returned, not an error: its result line
// says so.
func runChild(workload string, seed uint64, seconds float64, traced bool, traceOut string) (resultLine, provenance, error) {
	var (
		line resultLine
		prov provenance
	)
	exe, err := os.Executable()
	if err != nil {
		return line, prov, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return line, prov, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, prov, fmt.Errorf("%s: result line: %w (%v)", workload, err, runErr)
	}
	if err := json.Unmarshal(bytes.TrimPrefix(lines[len(lines)-2], []byte("provenance ")), &prov); err != nil {
		return line, prov, fmt.Errorf("%s: provenance line: %w", workload, err)
	}
	if runErr != nil && line.Correct {
		return line, prov, fmt.Errorf("%s: %w", workload, runErr)
	}
	return line, prov, nil
}

// runAll runs every workload plainRuns times plain and, if asked, once
// traced, each run in its own process, prints one row per metric and
// writes the report. The plain runs go round the workloads, so that the
// runs of one workload lie minutes apart and their spread shows what the
// machine does over the length of a report, not of one run. A run that
// fails its output checks is recorded with its failed share, and fails
// the whole once the report is written.
func runAll(seed uint64, seconds float64, traced bool, traceOut, out string) error {
	rep := fullReport{
		Schema: reportSchema,
		Env: environment{
			Commit: gitCommit(), Go: runtime.Version(), CPU: cpuModel(),
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
		},
		Workloads: map[string]*workloadReport{},
	}
	incorrect := 0
	for i := 0; i < plainRuns; i++ {
		for _, w := range workloads {
			line, prov, err := runChild(w.name, seed, seconds, false, "")
			if err != nil {
				return err
			}
			if !line.Correct {
				incorrect++
				fmt.Printf("%s run %d: output checks failed: %s\n", w.name, i, strings.Join(prov.Errors, "; "))
			}
			if rep.Workloads[w.name] == nil {
				rep.Workloads[w.name] = &workloadReport{ChunkOps: prov.ChunkOps}
			}
			wr := rep.Workloads[w.name]
			wr.Runs = append(wr.Runs, runRecord{Attempted: line.Attempted, Failed: line.Failed, Chunks: prov.Chunks, WallS: prov.WallS, Metrics: prov.EndToEnd})
		}
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		if traced {
			line, prov, err := runChild(w.name, seed, seconds, true, traceOut)
			if err != nil {
				return err
			}
			if !line.Correct {
				incorrect++
				fmt.Printf("%s traced run: output checks failed: %s\n", w.name, strings.Join(prov.Errors, "; "))
			}
			wr.PerLayer = values{}
			for _, d := range perLayer {
				wr.PerLayer[d.name] = line.Metrics[d.name].Value
			}
		}
		fmt.Printf("%s  (%d ops per chunk, %d plain runs)\n", w.name, wr.ChunkOps, len(wr.Runs))
		for _, d := range endToEnd {
			if !d.reportedBy(w.name) {
				continue
			}
			vals := wr.series(d.name)
			sort.Float64s(vals)
			fmt.Printf("  %-34s %12.5g %-7s [%.5g .. %.5g] n=%d ops\n", d.name, median(vals), d.unit, vals[0], vals[len(vals)-1], wr.Runs[0].Attempted)
		}
		if traced {
			for _, d := range perLayer {
				fmt.Printf("  %-34s %12.5g %-7s -> %s\n", d.name, wr.PerLayer[d.name], d.unit, d.moves)
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed their output checks", incorrect)
	}
	return nil
}

// series is one end-to-end metric over the workload's plain runs.
func (w *workloadReport) series(name string) []float64 {
	vals := make([]float64, 0, len(w.Runs))
	for _, r := range w.Runs {
		vals = append(vals, r.Metrics[name])
	}
	return vals
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles
// (n=4). Fewer than two values have no spread.
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// exactCount names the per-layer metrics that are counts of a seeded,
// deterministic run: two runs of one seed must agree on them exactly.
func exactCount(name string) bool {
	for _, p := range []string{"faults.", "outcome.", "abft.flagged", "abft.detected", "abft.missed", "abft.cascaded", "abft.corrected", "abft.skipped"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func loadReport(path string) (*fullReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: report schema %d, this build compares schema %d", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// compareReports applies the bounds of the endToEnd table to two
// reports, one row per metric and workload. B regressed where its median
// is worse than A's by more than the bound; where either side's own
// spread is wider than the bound the row is unresolved, unless every run
// of B reads better than every run of A. The exact count ratios and the
// exact per-layer counts are compared between two reports of one seed
// only, and regress on any worsening or change.
func compareReports(pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			return fmt.Errorf("workload %s: missing from a report; not comparable", w.name)
		}
		if wa.ChunkOps != wb.ChunkOps {
			return fmt.Errorf("workload %s: operation counts differ between the reports; not comparable", w.name)
		}
	}
	sameSeed := a.Env.Seed == b.Env.Seed

	bad := 0
	row := func(workload, metric string, ma, mb float64, detail, verdict string) {
		fmt.Printf("%-18s %-26s %12.5g -> %12.5g  %s%s\n", workload, metric, ma, mb, detail, verdict)
		if verdict != "ok" && verdict != "unresolved" {
			bad++
		}
	}
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		for _, d := range endToEnd {
			if !d.reportedBy(w.name) || (d.bound == 0 && !sameSeed) {
				continue
			}
			va, vb := wa.series(d.name), wb.series(d.name)
			ma, mb := median(va), median(vb)
			sign := 1.0 // worse = larger
			if d.higher {
				sign = -1
			}
			if d.bound == 0 {
				verdict := "ok"
				if sign*(mb-ma) > 0 {
					verdict = "regressed"
				}
				row(w.name, d.name, ma, mb, "(exact) ", verdict)
				continue
			}
			if !(ma > 0 && mb > 0) { // a timing, rate or size of 0 was not measured
				return fmt.Errorf("workload %s: %s reads %v and %v; not comparable", w.name, d.name, ma, mb)
			}
			verdict := "ok"
			switch {
			case max(spread(va), spread(vb)) > d.bound && !allBetter(va, vb, sign):
				verdict = "unresolved"
			case sign*(mb-ma)/ma > d.bound:
				verdict = "regressed"
			}
			detail := fmt.Sprintf("%+6.1f%% (bound %.0f%%, spread %.1f%% / %.1f%%)  ", 100*(mb-ma)/ma, 100*d.bound, 100*spread(va), 100*spread(vb))
			row(w.name, d.name, ma, mb, detail, verdict)
		}
		if !sameSeed || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			if exactCount(d.name) && wa.PerLayer[d.name] != wb.PerLayer[d.name] {
				row(w.name, d.name, wa.PerLayer[d.name], wb.PerLayer[d.name], "", "changed (exact count of one seed)")
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// allBetter reports whether every run of b reads better than every run
// of a; sign is +1 when larger is worse.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}
