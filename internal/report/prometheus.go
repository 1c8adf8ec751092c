package report

import (
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/prom"
)

// WriteMetricsText renders a telemetry snapshot in the Prometheus text
// exposition format: campaign gauges, outcome-class and ABFT counters,
// per-worker series, and the per-phase latency histograms. Output is
// deterministic for a given snapshot — families in a fixed order, label
// values in input order — so it can be golden tested and diffed across
// scrapes.
func WriteMetricsText(out io.Writer, s core.TelemetrySnapshot) error {
	w := prom.NewWriter(out)

	w.Gauge("llmfi_trials_total", "Trials configured for the campaign.", float64(s.TotalTrials))
	w.Gauge("llmfi_trials_done", "Completed trials, including any restored from a resume checkpoint.", float64(s.DoneTrials))
	w.Gauge("llmfi_trials_resumed", "Trials restored from a resume checkpoint (counted in llmfi_trials_done).", float64(s.ResumedTrials))
	w.Gauge("llmfi_trials_fired", "Trials whose fault actually struck.", float64(s.Fired))
	w.Gauge("llmfi_fired_rate", "Fraction of completed trials whose fault struck.", s.FiredRate)
	w.Gauge("llmfi_trials_per_second", "Throughput of this run (resumed trials excluded).", s.TrialsPerSec)
	w.Gauge("llmfi_elapsed_seconds", "Wall time since the campaign (or resumed run) started.", s.ElapsedSeconds)

	outcome := func(class string, n int) {
		w.Gauge("llmfi_outcome_trials", "Completed trials by outcome class.", float64(n),
			prom.Label{Key: "class", Val: class})
	}
	outcome("masked", s.Masked)
	outcome("sdc_subtle", s.Subtle)
	outcome("sdc_distorted", s.Distorted)

	w.Counter("llmfi_hook_fires_total", "Forward-hook invocations of the mitigation (ExtraHook) slot.", s.HookFires)
	w.Counter("llmfi_traced_trials_total", "Trials that produced a propagation-trace record.", s.TracedTrials)

	w.Counter("llmfi_decode_batch_steps_total", "Stacked decode steps of the continuous-batching scheduler.", s.DecodeBatchSteps)
	w.Counter("llmfi_decode_batch_rows_total", "Trial rows carried by stacked decode steps.", s.DecodeBatchRows)
	w.Gauge("llmfi_decode_batch_occupancy", "Mean in-flight trials per stacked decode step.", s.BatchOccupancy)

	w.Counter("llmfi_abft_checks_total", "ABFT checksum evaluations.", int64(s.AbftChecks))
	w.Counter("llmfi_abft_flagged_total", "ABFT checksum violations.", int64(s.AbftFlagged))
	w.Counter("llmfi_abft_detected_total", "Fired trials flagged at the injection site.", int64(s.AbftDetected))
	w.Counter("llmfi_abft_missed_total", "Fired trials the checker did not flag at the site.", int64(s.AbftMissed))
	w.Counter("llmfi_abft_false_positives_total", "Violations with no fault active.", int64(s.AbftFalsePositives))
	w.Counter("llmfi_abft_cascaded_total", "Downstream violations of a live fault.", int64(s.AbftCascaded))
	w.Counter("llmfi_abft_corrected_total", "Flagged rows repaired by recomputation.", int64(s.AbftCorrected))
	w.Counter("llmfi_abft_skipped_total", "Flagged rows zeroed after failed recomputation.", int64(s.AbftSkipped))

	worker := func(i int) prom.Label { return prom.Label{Key: "worker", Val: strconv.Itoa(i)} }
	for i, ws := range s.Workers {
		w.Gauge("llmfi_worker_trials", "Trials completed per pool lane (one decode loop of a worker).", float64(ws.Trials), worker(i))
	}
	for i, ws := range s.Workers {
		w.Gauge("llmfi_worker_busy_seconds", "Time each pool lane spent inside trials.", ws.BusySeconds, worker(i))
	}
	for i, ws := range s.Workers {
		w.Gauge("llmfi_worker_utilization", "Lane busy time over campaign wall time.", ws.Utilization, worker(i))
	}

	for _, ph := range s.Phases {
		w.Histogram("llmfi_phase_latency_seconds", "Per-trial latency by campaign phase.",
			s.PhaseBucketBounds, ph.Buckets, ph.SumSeconds, ph.Count,
			prom.Label{Key: "phase", Val: ph.Phase})
	}
	return w.Flush()
}
