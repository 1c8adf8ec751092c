// Package fabric shards one fault-injection campaign across processes:
// a coordinator owns the campaign definition and hands out trial-index
// leases over a versioned HTTP+JSON API, workers run leased indices
// through the core runtime and stream the completed trials back, and
// the coordinator merges them into a Result bit-identical to a
// single-process run.
//
// The bit-identity argument is the same one that makes checkpoint
// resume sound: trial t derives all of its randomness from Split(t) of
// the campaign seed and runs against the deterministic fault-free
// baseline, so a trial's outcome is a pure function of (campaign
// fingerprint, t). Any partition of the index space across any number
// of workers — including re-executions after lease reissue — therefore
// merges, index-keyed, to the bit-identical full Result. Correctness
// never depends on lease bookkeeping: leases only prevent duplicate
// work, and duplicate submissions are deduplicated by index.
package fabric

import (
	"repro/internal/core"
	"repro/internal/report"
)

// SchemaVersion is the fabric wire-API schema. Every request and
// response carries it; a coordinator refuses joins from workers
// speaking a different schema. Bump it together with any change to the
// wire structs below. (v2: JoinRequest.HTTPAddr for the coordinator's
// metrics fan-in. v3: the fingerprint's Params, the model's parameter
// hash.)
const SchemaVersion = 3

// The versioned endpoint paths. Join performs the fleet handshake
// (schema + binary version + campaign fingerprint), Lease hands out
// trial-index leases, Results accepts completed trials (idempotent,
// index-keyed), and Status reports fleet-level progress.
const (
	PathJoin    = report.APIVersion + "/join"
	PathLease   = report.APIVersion + "/lease"
	PathResults = report.APIVersion + "/results"
	PathStatus  = report.APIVersion + "/status"
)

// JoinRequest is a worker's handshake. The coordinator rejects any
// mismatch in schema, binary version, or campaign fingerprint — a
// worker built from different code or configured with different flags
// could compute different trials, which would silently break the
// merged Result's bit-identity.
type JoinRequest struct {
	Schema  int    `json:"schema"`
	Version string `json:"version"`
	// Fingerprint is the worker's locally-constructed campaign identity;
	// it must equal the coordinator's.
	Fingerprint core.Fingerprint `json:"fingerprint"`
	// Worker, when non-empty, rejoins under an existing identity (after
	// a connection loss or a coordinator restart).
	Worker string `json:"worker,omitempty"`
	// HTTPAddr, when non-empty, is the base URL of the worker's own
	// observability surface (its -http listener). The coordinator
	// scrapes <HTTPAddr>/metrics on an interval and re-exports the
	// series as aggregated llmfi_fleet_* metrics. Optional: workers
	// without a listener simply stay out of the fan-in.
	HTTPAddr string `json:"http_addr,omitempty"`
}

// JoinResponse accepts a worker into the fleet.
type JoinResponse struct {
	Schema int `json:"schema"`
	// Worker is the identity assigned to (or confirmed for) the worker.
	Worker string `json:"worker"`
	// Trials is the campaign's total trial count.
	Trials int `json:"trials"`
	// LeaseTTLMs is how long a lease stays valid without a result
	// submission (submissions renew the worker's leases).
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// LeaseTrials is the maximum indices per lease.
	LeaseTrials int `json:"lease_trials"`
}

// LeaseRequest asks for a batch of trial indices to execute.
type LeaseRequest struct {
	Schema int    `json:"schema"`
	Worker string `json:"worker"`
	// Max caps the returned batch (0 or above the coordinator's
	// configured lease size means the coordinator's size).
	Max int `json:"max,omitempty"`
}

// Lease is one granted batch of trial indices.
type Lease struct {
	ID      uint64 `json:"id"`
	Indices []int  `json:"indices"`
	// TTLMs is the lease's time budget; unsubmitted indices return to
	// the pool when it elapses without contact from the worker.
	TTLMs int64 `json:"ttl_ms"`
}

// LeaseResponse carries a lease, a wait hint, or campaign completion.
type LeaseResponse struct {
	Schema int    `json:"schema"`
	Lease  *Lease `json:"lease,omitempty"`
	// Wait reports that every remaining trial is currently leased to
	// other workers — poll again shortly (an outstanding lease may
	// complete or expire).
	Wait bool `json:"wait,omitempty"`
	// Done reports that every trial of the campaign is complete; the
	// worker should exit.
	Done bool `json:"done,omitempty"`
}

// TrialResult is one completed trial, keyed by its campaign index. The
// Trial payload round-trips through JSON bit-identically: every field
// is a bool, integer, string, or finite float64, and Go's JSON encoder
// emits the shortest float representation that parses back exactly.
type TrialResult struct {
	Index int        `json:"index"`
	Trial core.Trial `json:"trial"`
}

// ResultsRequest submits completed trials. Submission is idempotent:
// indices already completed (e.g. re-executed under a reissued lease)
// are counted as duplicates and discarded. A submission also serves as
// the worker's heartbeat, renewing its outstanding leases.
type ResultsRequest struct {
	Schema int    `json:"schema"`
	Worker string `json:"worker"`
	// Lease is the lease the trials were executed under (informational;
	// results are accepted index-keyed even after the lease expired).
	Lease  uint64        `json:"lease,omitempty"`
	Trials []TrialResult `json:"trials"`
}

// ResultsResponse acknowledges a submission.
type ResultsResponse struct {
	Schema     int  `json:"schema"`
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Done       bool `json:"done,omitempty"`
}

// WorkerStatus is one fleet member's view in the status report.
type WorkerStatus struct {
	Worker string `json:"worker"`
	// Trials counts results accepted from this worker (duplicates
	// excluded).
	Trials int `json:"trials"`
	// TrialsPerSec is the worker's accepted-trial rate since it joined.
	TrialsPerSec float64 `json:"trials_per_sec"`
	// OutstandingLeases / OutstandingTrials are the worker's live leases
	// and the not-yet-submitted indices they hold.
	OutstandingLeases int `json:"outstanding_leases"`
	OutstandingTrials int `json:"outstanding_trials"`
	// LastSeenSec is seconds since the worker's last request.
	LastSeenSec float64 `json:"last_seen_seconds"`
}

// StatusResponse is the fleet-level progress report (GET /api/v1/status).
type StatusResponse struct {
	Schema      int              `json:"schema"`
	Version     string           `json:"version"`
	Fingerprint core.Fingerprint `json:"fingerprint"`
	Trials      int              `json:"trials"`
	Done        int              `json:"done"`
	// OutstandingTrials are leased-but-unsubmitted indices;
	// OutstandingLeases the live leases holding them.
	OutstandingTrials int `json:"outstanding_trials"`
	OutstandingLeases int `json:"outstanding_leases"`
	// ReissuedLeases counts leases whose worker went silent past the TTL
	// and whose unsubmitted indices returned to the pool.
	ReissuedLeases int `json:"reissued_leases"`
	// DuplicateTrials counts submissions discarded by index-keyed
	// dedup (the cost of reissue, never a correctness problem).
	DuplicateTrials int `json:"duplicate_trials"`
	// StitchedResults counts result submissions that carried the trace
	// context the coordinator issued with the lease — i.e. worker spans
	// that stitch to a coordinator-side trace.
	StitchedResults int            `json:"stitched_results,omitempty"`
	Finished        bool           `json:"finished"`
	ElapsedSec      float64        `json:"elapsed_seconds"`
	TrialsPerSec    float64        `json:"trials_per_sec"`
	Workers         []WorkerStatus `json:"workers,omitempty"`
}
