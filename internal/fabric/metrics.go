package fabric

import (
	"io"

	"repro/internal/prom"
)

// WriteFleetMetricsText renders the fleet status in the Prometheus text
// exposition format — the multi-node counterpart of
// report.WriteMetricsText. Output is deterministic for a given status
// (fixed family order, workers sorted by name), so it can be golden
// tested and diffed across scrapes.
func WriteFleetMetricsText(out io.Writer, s StatusResponse) error {
	w := prom.NewWriter(out)
	w.Gauge("llmfi_fabric_trials_total", "Trials configured for the distributed campaign.", float64(s.Trials))
	w.Gauge("llmfi_fabric_trials_done", "Trials merged by the coordinator.", float64(s.Done))
	w.Gauge("llmfi_fabric_trials_outstanding", "Leased, not-yet-submitted trial indices.", float64(s.OutstandingTrials))
	w.Gauge("llmfi_fabric_leases_outstanding", "Live leases across the fleet.", float64(s.OutstandingLeases))
	w.Counter("llmfi_fabric_leases_reissued_total", "Leases expired past their TTL and returned to the pool.", int64(s.ReissuedLeases))
	w.Counter("llmfi_fabric_duplicate_trials_total", "Submitted trials discarded by index-keyed dedup.", int64(s.DuplicateTrials))
	w.Counter("llmfi_fabric_stitched_results_total", "Result submissions carrying the lease's trace context (coordinator/worker trace stitch).", int64(s.StitchedResults))
	w.Gauge("llmfi_fabric_workers", "Workers that have joined the fleet.", float64(len(s.Workers)))
	w.Gauge("llmfi_fabric_trials_per_second", "Fleet-wide merge throughput (restored trials excluded).", s.TrialsPerSec)
	w.Gauge("llmfi_fabric_elapsed_seconds", "Wall time since the coordinator started.", s.ElapsedSec)
	finished := 0.0
	if s.Finished {
		finished = 1
	}
	w.Gauge("llmfi_fabric_finished", "Whether every trial is merged (0/1).", finished)

	worker := func(ws WorkerStatus) prom.Label { return prom.Label{Key: "worker", Val: ws.Worker} }
	for _, ws := range s.Workers {
		w.Gauge("llmfi_fabric_worker_trials", "Trials accepted per worker.", float64(ws.Trials), worker(ws))
	}
	for _, ws := range s.Workers {
		w.Gauge("llmfi_fabric_worker_trials_per_second", "Accepted-trial rate per worker since it joined.", ws.TrialsPerSec, worker(ws))
	}
	for _, ws := range s.Workers {
		w.Gauge("llmfi_fabric_worker_outstanding_trials", "Leased, unsubmitted indices per worker.", float64(ws.OutstandingTrials), worker(ws))
	}
	for _, ws := range s.Workers {
		w.Gauge("llmfi_fabric_worker_last_seen_seconds", "Seconds since each worker's last request.", ws.LastSeenSec, worker(ws))
	}
	return w.Flush()
}
