package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric, its unit and which way is better. The two
// tables below are the benchmark's output contract: BENCHMARK.json lists
// the same names, units and directions, and bench_test.go fails when the
// two drift apart.
type metricDef struct {
	name, unit string
	higher     bool // better higher; otherwise better lower

	// End-to-end metrics only. bound is the share of the baseline's
	// median by which -compare lets the metric worsen before it calls a
	// regression; 0 marks an exact count ratio of a seeded run, where any
	// worsening between two reports of one seed is a regression. on lists
	// the workloads that report the metric; nil is all of them.
	bound float64
	on    []string

	// Per-layer metrics only: the end-to-end metrics this one should
	// move, each as metric@workload, the workload possibly a glob. Empty
	// predicts no effect on any end-to-end metric.
	moves string
}

func (d metricDef) reportedBy(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// universal metrics are reported by every workload and are never 0:
// they are BENCHMARK.json's end_to_end list, which a driver gates on
// every workload. The other end-to-end metrics lead its per_layer list.
func (d metricDef) universal() bool { return d.on == nil && d.bound > 0 }

var (
	serving = []string{"serve_clean", "serve_faults"}
	checked = []string{"campaign_mem_abft", "serve_faults"}
)

// endToEnd is what a user of the system sees: a campaign's or the
// fabric's trials per second, a served request's timings, whether the
// outputs were right, whether ABFT caught the errors that matter, and
// what the process cost to set up and hold in memory.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.07},
	{name: "tokens_per_s", unit: "1/s", higher: true, bound: 0.10, on: serving},
	{name: "ttft_mean_ms", unit: "ms", bound: 0.10, on: serving},
	{name: "itl_mean_ms", unit: "ms", bound: 0.10, on: serving},
	{name: "latency_p50_ms", unit: "ms", bound: 0.10, on: serving},
	{name: "latency_p90_ms", unit: "ms", bound: 0.12, on: serving},
	{name: "failed_share", unit: "frac"},
	{name: "sdc_recall", unit: "frac", higher: true, on: checked},
	{name: "abft_false_positive_share", unit: "frac", on: checked},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10},
}

// servingTimings are the end-to-end metrics a serving chunk reads beside
// its request rate.
var servingTimings = []string{"tokens_per_s", "ttft_mean_ms", "itl_mean_ms", "latency_p50_ms", "latency_p90_ms"}

// perLayer metrics are read on the traced run only. A metric whose layer
// a workload does not execute reads 0 there.
var perLayer = []metricDef{
	{name: "tensor.scalar_peak_gflops", unit: "GFLOP/s", higher: true, moves: "ops_per_s@campaign_serial"},
	{name: "tensor.matvec_gflops", unit: "GFLOP/s", higher: true, moves: "ops_per_s@campaign_serial"},
	{name: "tensor.matvec_bytes_per_flop", unit: "B/flop", moves: "ops_per_s@campaign_serial"},
	{name: "tensor.matmulrows_gflops_n16", unit: "GFLOP/s", higher: true, moves: "ops_per_s@campaign_batched tokens_per_s@serve_faults"},
	{name: "tensor.matmulp_gflops_m120", unit: "GFLOP/s", higher: true, moves: "ttft_mean_ms@serve_clean ops_per_s@campaign_mem_abft"},
	{name: "tensor.matmulchecked_gflops_m120", unit: "GFLOP/s", higher: true, moves: "ops_per_s@campaign_mem_abft"},
	{name: "tensor.checked_overhead_frac", unit: "frac", moves: "ops_per_s@campaign_mem_abft"},

	{name: "model.prefill_ms_p120", unit: "ms", moves: "ttft_mean_ms@serve_clean ops_per_s@campaign_mem_abft"},
	{name: "model.prefill_tok_per_s", unit: "1/s", higher: true, moves: "ttft_mean_ms@serve_clean ops_per_s@campaign_mem_abft"},
	{name: "model.decode_step_us", unit: "us", moves: "ops_per_s@campaign_serial itl_mean_ms@serve_clean"},
	{name: "model.batch_step_us_w16", unit: "us", moves: "ops_per_s@campaign_batched itl_mean_ms@serve_faults"},
	{name: "model.batch_row_us", unit: "us", moves: "ops_per_s@campaign_batched itl_mean_ms@serve_faults"},
	{name: "model.batch_speedup_vs_decode", unit: "x", higher: true, moves: "ops_per_s@campaign_batched itl_mean_ms@serve_faults"},
	{name: "model.fork_into_us", unit: "us", moves: "ops_per_s@campaign_serial"},
	{name: "model.clone_shared_write_us", unit: "us", moves: "ops_per_s@campaign_mem_abft"},

	{name: "gen.generate_ms_p120_n12", unit: "ms", moves: "ops_per_s@campaign_serial"},

	{name: "core.prefill_share", unit: "frac", moves: "ops_per_s@campaign_*"},
	{name: "core.decode_share", unit: "frac", higher: true, moves: "ops_per_s@campaign_*"},
	{name: "core.classify_share", unit: "frac", moves: "ops_per_s@campaign_*"},
	{name: "core.other_share", unit: "frac", moves: "ops_per_s@campaign_*"},
	{name: "core.decode_token_us", unit: "us", moves: "ops_per_s@campaign_*"},
	{name: "core.worker_utilization", unit: "frac", higher: true, moves: "ops_per_s@campaign_*"},
	{name: "core.collector_idle_share", unit: "frac", moves: "ops_per_s@campaign_*"},
	{name: "core.batch_occupancy", unit: "rows", higher: true, moves: "ops_per_s@campaign_*"},
	{name: "core.fired_share", unit: "frac", higher: true, moves: "ops_per_s@campaign_*"},
	{name: "core.baseline_s", unit: "s", moves: "ops_per_s@campaign_*"},
	{name: "core.alloc_kb_per_trial", unit: "KB", moves: "ops_per_s@campaign_*"},
	{name: "core.gc_pause_ms", unit: "ms/s", moves: "ops_per_s@campaign_*"},
	{name: "core.batch_speedup_vs_serial", unit: "x", higher: true, moves: "ops_per_s@campaign_batched"},

	{name: "abft.checks_per_op", unit: "count", moves: "ops_per_s@campaign_mem_abft"},
	{name: "abft.check_us_per_op", unit: "us", moves: "ops_per_s@campaign_mem_abft"},
	{name: "abft.check_share", unit: "frac", moves: "ops_per_s@campaign_mem_abft"},
	{name: "abft.flagged", unit: "count", moves: "sdc_recall@campaign_mem_abft sdc_recall@serve_faults"},
	{name: "abft.detected", unit: "count", higher: true, moves: "sdc_recall@campaign_mem_abft sdc_recall@serve_faults"},
	{name: "abft.missed", unit: "count", moves: "sdc_recall@campaign_mem_abft sdc_recall@serve_faults"},
	{name: "abft.cascaded", unit: "count", moves: "sdc_recall@campaign_mem_abft sdc_recall@serve_faults"},
	{name: "abft.corrected", unit: "count", higher: true, moves: "sdc_recall@campaign_mem_abft sdc_recall@serve_faults"},
	{name: "abft.skipped", unit: "count", moves: "sdc_recall@campaign_mem_abft sdc_recall@serve_faults"},
	{name: "mitigate.share", unit: "frac", moves: "ops_per_s@campaign_mem_abft"},
	{name: "mitigate.us_per_flag", unit: "us", moves: "ops_per_s@campaign_mem_abft"},

	{name: "faults.fired", unit: "count", higher: true, moves: "sdc_recall@serve_faults"},
	{name: "faults.surface_linear", unit: "count", moves: "sdc_recall@serve_faults"},
	{name: "faults.surface_kv", unit: "count", moves: "sdc_recall@serve_faults"},
	{name: "faults.surface_norm", unit: "count", moves: "sdc_recall@serve_faults"},
	{name: "faults.surface_embed", unit: "count", moves: "sdc_recall@serve_faults"},
	{name: "faults.surface_attn", unit: "count", moves: "sdc_recall@serve_faults"},
	{name: "outcome.masked", unit: "count", higher: true, moves: "sdc_recall@serve_faults"},
	{name: "outcome.sdc_subtle", unit: "count", moves: "sdc_recall@serve_faults"},
	{name: "outcome.sdc_distorted", unit: "count", moves: "sdc_recall@serve_faults"},

	{name: "fabric.leases", unit: "count", higher: true, moves: "ops_per_s@fabric_2w"},
	{name: "fabric.join_rtt_ms", unit: "ms", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.lease_rtt_ms_p50", unit: "ms", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.results_rtt_ms_p50", unit: "ms", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.results_rtt_ms_p99", unit: "ms", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.wire_ms_per_lease", unit: "ms", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.wire_bytes_per_trial", unit: "B", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.coordinator_busy_share", unit: "frac", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.worker_exec_share", unit: "frac", higher: true, moves: "ops_per_s@fabric_2w"},
	{name: "fabric.worker_wait_share", unit: "frac", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.tail_s", unit: "s", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.reissued_leases", unit: "count", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.duplicate_trials", unit: "count", moves: "ops_per_s@fabric_2w"},
	{name: "fabric.scaling_efficiency", unit: "frac", higher: true, moves: "ops_per_s@fabric_2w"},

	{name: "serve.queue_wait_ms_p50", unit: "ms", moves: "ttft_mean_ms@serve_*"},
	{name: "serve.queue_wait_ms_p99", unit: "ms", moves: "ttft_mean_ms@serve_*"},
	{name: "serve.first_token_ms_p50", unit: "ms", moves: "ttft_mean_ms@serve_*"},
	{name: "serve.first_token_ms_p99", unit: "ms", moves: "ttft_mean_ms@serve_*"},
	{name: "serve.prefill_ms_mean", unit: "ms", moves: "ttft_mean_ms@serve_*"},
	{name: "serve.decode_ms_p50", unit: "ms", moves: "itl_mean_ms@serve_* tokens_per_s@serve_*"},
	{name: "serve.inflight_mean", unit: "rows", higher: true, moves: "itl_mean_ms@serve_* tokens_per_s@serve_*"},
	{name: "serve.serial_path_share", unit: "frac", moves: "tokens_per_s@serve_faults"},
	{name: "serve.latency_p99_ms", unit: "ms", moves: "latency_p90_ms@serve_*"},
	{name: "serve.requests_ok", unit: "count", higher: true, moves: "failed_share@serve_*"},
	{name: "serve.requests_deadline", unit: "count", moves: "failed_share@serve_*"},
	{name: "serve.requests_canceled", unit: "count", moves: "failed_share@serve_*"},
	{name: "serve.requests_invalid", unit: "count", moves: "failed_share@serve_*"},
	{name: "serve.requests_draining", unit: "count", moves: "failed_share@serve_*"},
	{name: "serve.parse_us", unit: "us", moves: "latency_p50_ms@serve_clean"},
	{name: "serve.wire_us_per_req", unit: "us", moves: "latency_p50_ms@serve_clean"},

	{name: "obs.overhead_frac", unit: "frac"},
	{name: "obs.spans_per_op", unit: "count"},
	{name: "obs.record_ns", unit: "ns"},
	{name: "trace.records", unit: "count", higher: true},
}

// resultMetrics are the metrics of a run's result line: the universal
// end-to-end metrics of a plain run; of a traced run the remaining
// end-to-end metrics (0 on a workload that does not report one) and
// every per-layer metric.
func resultMetrics(traced bool) []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.universal() != traced {
			out = append(out, d)
		}
	}
	if traced {
		out = append(out, perLayer...)
	}
	return out
}

// values maps a metric name to its reading.
type values map[string]float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, and 0 when the base is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// fastQuartile is the quartile on the fast side of a run's per-chunk
// readings: the third quartile of rates, the first of times, by nearest
// rank counted from the fast end. The machine under the benchmark only
// ever takes time away, in bursts longer than an operation and shorter
// than a run, so the fast side of the readings repeats from run to run
// where their middle does not: over ten seeds the operation rates spread
// 4.5-8.3 % read this way and 4.8-14.7 % read as medians. Chunks are
// sized so that eight or more fit the window, which keeps the reading at
// least one chunk away from the fastest; only a run of fewer than five
// chunks (the smoke test) reads its fastest one.
func fastQuartile(xs []float64, higherIsFaster bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsFaster {
		return s[len(s)-1-(len(s)-1)/4]
	}
	return s[(len(s)-1)/4]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// percentile reads the q-quantile of the samples (the same index rule
// as loadgen's own percentiles), 0 for an empty sample.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// peakRSSMB is the process's high-water resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
