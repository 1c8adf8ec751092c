package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/outcome"
	"repro/internal/prom"
)

// reqStatus labels a finished (or rejected) request.
type reqStatus int

const (
	statusOK reqStatus = iota
	statusInvalid
	statusDeadline
	statusCanceled
	statusDraining

	nStatus
)

// String names the status as exported in metric labels.
func (s reqStatus) String() string {
	switch s {
	case statusOK:
		return "ok"
	case statusInvalid:
		return "invalid"
	case statusDeadline:
		return "deadline_exceeded"
	case statusCanceled:
		return "canceled"
	case statusDraining:
		return "draining"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// nLatencyBuckets is the finite bucket count of the serving latency
// histograms. Requests live longer than campaign phases (22 buckets,
// internal/core), so these carry 26 (prom.ExpBounds: 1µs doubling up to
// ~33.6s) before +Inf.
const nLatencyBuckets = 26

// Metrics is the per-request serving instrumentation: request counters
// by status, exponential latency histograms, SLO violations, the
// in-flight gauge, and campaign-mode injection/outcome counters. All
// methods are safe for concurrent use (lock-free atomics on the hot
// path, matching the campaign telemetry's design).
type Metrics struct {
	inFlight      atomic.Int64
	requests      [nStatus]atomic.Int64
	tokens        atomic.Int64
	sloViolations atomic.Int64

	latency    *prom.Hist
	ttft       *prom.Hist
	interToken *prom.Hist

	injected atomic.Int64
	detected atomic.Int64
	outcomes [3]atomic.Int64

	prefillHits, prefillMisses   atomic.Int64
	tokensReused, tokensComputed atomic.Int64
	cacheBytes, cacheEvictions   atomic.Int64
}

// NewMetrics returns zeroed serving metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		latency:    prom.NewHist(nLatencyBuckets),
		ttft:       prom.NewHist(nLatencyBuckets),
		interToken: prom.NewHist(nLatencyBuckets),
	}
}

func (m *Metrics) requestStarted() { m.inFlight.Add(1) }
func (m *Metrics) requestDone()    { m.inFlight.Add(-1) }

// observeRequest records one finished request.
func (m *Metrics) observeRequest(st reqStatus, latency time.Duration, tokens int) {
	m.requests[st].Add(1)
	m.tokens.Add(int64(tokens))
	m.latency.Observe(latency)
}

// observeTTFT records one request's time to first token.
func (m *Metrics) observeTTFT(d time.Duration) { m.ttft.Observe(d) }

// observeInterToken records one gap between consecutive decode tokens
// of a request.
func (m *Metrics) observeInterToken(d time.Duration) { m.interToken.Observe(d) }

// observeRejected records a request refused before it ran.
func (m *Metrics) observeRejected(st reqStatus) { m.requests[st].Add(1) }

func (m *Metrics) observeSLOViolation() { m.sloViolations.Add(1) }

func (m *Metrics) observeInjected() { m.injected.Add(1) }

func (m *Metrics) observeDetection(flagged int) { m.detected.Add(int64(flagged)) }

func (m *Metrics) observeOutcome(c outcome.Class) {
	if c >= 0 && int(c) < len(m.outcomes) {
		m.outcomes[c].Add(1)
	}
}

// observePrefill records one prompt's prefill: how many of its tokens were
// forked from the prefix cache (a hit when any were) and how many computed.
func (m *Metrics) observePrefill(reused, computed int) {
	if reused > 0 {
		m.prefillHits.Add(1)
	} else {
		m.prefillMisses.Add(1)
	}
	m.tokensReused.Add(int64(reused))
	m.tokensComputed.Add(int64(computed))
}

// observePrefixCache records one insertion into the prefix cache: the
// entries it evicted and the bytes the cache holds after it.
func (m *Metrics) observePrefixCache(evicted, bytes int) {
	m.cacheEvictions.Add(int64(evicted))
	m.cacheBytes.Store(int64(bytes))
}

// MetricsSnapshot is a consistent-enough copy of the counters for
// rendering (individual counters are atomic; the set is sampled live).
type MetricsSnapshot struct {
	InFlight      int64
	Requests      [nStatus]int64
	Tokens        int64
	SLOViolations int64
	LatBuckets    [nLatencyBuckets + 1]int64
	LatCount      int64
	LatSum        float64 // seconds
	TTFTBuckets   [nLatencyBuckets + 1]int64
	TTFTCount     int64
	TTFTSum       float64 // seconds
	ITBuckets     [nLatencyBuckets + 1]int64
	ITCount       int64
	ITSum         float64 // seconds
	Injected      int64
	Detected      int64
	Outcomes      [3]int64
	// The prefix cache: prompts prefilled from a cached prefix (hits) or
	// from nothing (misses), prompt tokens forked from it against prompt
	// tokens computed, the bytes it holds and the entries it has evicted.
	PrefillHits          int64
	PrefillMisses        int64
	PromptTokensReused   int64
	PromptTokensComputed int64
	PrefixCacheBytes     int64
	PrefixCacheEvictions int64
}

// Snapshot samples the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	s.InFlight = m.inFlight.Load()
	for i := range s.Requests {
		s.Requests[i] = m.requests[i].Load()
	}
	s.Tokens = m.tokens.Load()
	s.SLOViolations = m.sloViolations.Load()
	s.LatCount, s.LatSum = m.latency.Load(s.LatBuckets[:])
	s.TTFTCount, s.TTFTSum = m.ttft.Load(s.TTFTBuckets[:])
	s.ITCount, s.ITSum = m.interToken.Load(s.ITBuckets[:])
	s.Injected = m.injected.Load()
	s.Detected = m.detected.Load()
	for i := range s.Outcomes {
		s.Outcomes[i] = m.outcomes[i].Load()
	}
	s.PrefillHits = m.prefillHits.Load()
	s.PrefillMisses = m.prefillMisses.Load()
	s.PromptTokensReused = m.tokensReused.Load()
	s.PromptTokensComputed = m.tokensComputed.Load()
	s.PrefixCacheBytes = m.cacheBytes.Load()
	s.PrefixCacheEvictions = m.cacheEvictions.Load()
	return s
}

// WriteMetricsText renders the snapshot in Prometheus text exposition
// format, deterministically (fixed family and label order).
func WriteMetricsText(out io.Writer, s MetricsSnapshot) error {
	w := prom.NewWriter(out)
	w.Gauge("llmfi_serve_in_flight", "Requests currently being served.", float64(s.InFlight))
	for st := reqStatus(0); st < nStatus; st++ {
		w.Counter("llmfi_serve_requests_total", "Finished requests by terminal status.", s.Requests[st],
			prom.Label{Key: "status", Val: st.String()})
	}
	w.Counter("llmfi_serve_tokens_total", "Generated tokens returned to clients.", s.Tokens)
	w.Counter("llmfi_serve_slo_violations_total", "Finished requests slower than the configured SLO.", s.SLOViolations)

	bounds := prom.ExpBounds(nLatencyBuckets)
	w.Histogram("llmfi_serve_request_latency_seconds", "End-to-end request latency.",
		bounds, s.LatBuckets[:], s.LatSum, s.LatCount)
	w.Histogram("llmfi_serve_ttft_seconds", "Time from request submission to first generated token.",
		bounds, s.TTFTBuckets[:], s.TTFTSum, s.TTFTCount)
	w.Histogram("llmfi_serve_inter_token_seconds", "Gap between consecutive decode tokens of a request.",
		bounds, s.ITBuckets[:], s.ITSum, s.ITCount)

	w.Counter("llmfi_serve_injected_total", "Requests served with an armed fault.", s.Injected)
	w.Counter("llmfi_serve_detected_total", "ABFT checks flagged across served requests.", s.Detected)
	for c := outcome.Masked; c <= outcome.SDCDistorted; c++ {
		w.Counter("llmfi_serve_outcome_total", "Classified request outcomes under injection.", s.Outcomes[c],
			prom.Label{Key: "class", Val: c.String()})
	}

	w.Counter("llmfi_serve_prefill_total", "Prompts prefilled, by whether a cached prefix was forked.", s.PrefillHits,
		prom.Label{Key: "cache", Val: "hit"})
	w.Counter("llmfi_serve_prefill_total", "Prompts prefilled, by whether a cached prefix was forked.", s.PrefillMisses,
		prom.Label{Key: "cache", Val: "miss"})
	w.Counter("llmfi_serve_prompt_tokens_total", "Prompt tokens by whether their KV rows were reused from the prefix cache or computed.", s.PromptTokensReused,
		prom.Label{Key: "source", Val: "reused"})
	w.Counter("llmfi_serve_prompt_tokens_total", "Prompt tokens by whether their KV rows were reused from the prefix cache or computed.", s.PromptTokensComputed,
		prom.Label{Key: "source", Val: "computed"})
	w.Gauge("llmfi_serve_prefix_cache_bytes", "KV bytes held by the prefix cache.", float64(s.PrefixCacheBytes))
	w.Counter("llmfi_serve_prefix_cache_evictions_total", "Prefixes evicted from the prefix cache.", s.PrefixCacheEvictions)
	return w.Flush()
}
