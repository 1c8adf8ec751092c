// Package loadgen drives deterministic concurrent request streams at a
// serving engine — the measurement harness behind fig_serving and the
// serving scenario tests. Request r always carries prompt
// Prompts[r%len(Prompts)], id "r%05d", and seed Seed+r, and stream k
// owns requests k, k+Streams, k+2·Streams, … — a strided assignment
// with no shared counter, so the request set (and, over a bit-identical
// engine, the response token set) is a pure function of the Config
// regardless of scheduling interleavings.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// Target serves one request to completion. *serve.Engine implements it
// directly; HTTPTarget adapts a remote endpoint.
type Target interface {
	Submit(ctx context.Context, req serve.Request) serve.Response
}

// Config shapes the generated load.
type Config struct {
	// Streams is the number of concurrent request streams (default 1).
	Streams int
	// Requests is the total request count.
	Requests int
	// Prompts are cycled through by request index (required).
	Prompts [][]int
	// Baselines, when non-nil, parallels Prompts with fault-free outputs
	// for outcome classification.
	Baselines [][]int
	// MaxNew bounds each request's generation (0 = engine default).
	MaxNew int
	// Deadline, when positive, is attached to every request.
	Deadline time.Duration
	// Seed offsets the per-request fault-sampling seeds.
	Seed uint64
	// SLO, when positive, counts client-side latency violations.
	SLO time.Duration
}

// Stats aggregates a run.
type Stats struct {
	// Responses holds every response, indexed by request number.
	Responses []serve.Response
	// OK, DeadlineExceeded, Canceled, and Failed partition the requests.
	OK, DeadlineExceeded, Canceled, Failed int
	// Injected and Fired count campaign-mode faults.
	Injected, Fired int
	// Outcomes tallies classified outcomes by class name.
	Outcomes map[string]int
	// P50, P90, P99, and Max summarize client-observed latency.
	P50, P90, P99, Max time.Duration
	// SLOViolations counts responses slower than Config.SLO.
	SLOViolations int
}

// Run fires cfg.Requests requests at tgt over cfg.Streams concurrent
// streams and aggregates the responses. Cancelling ctx stops the
// streams at their next request boundary; responses already in flight
// are kept.
func Run(ctx context.Context, tgt Target, cfg Config) (*Stats, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: Requests must be positive")
	}
	if len(cfg.Prompts) == 0 {
		return nil, fmt.Errorf("loadgen: at least one prompt is required")
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Baselines != nil && len(cfg.Baselines) != len(cfg.Prompts) {
		return nil, fmt.Errorf("loadgen: Baselines must parallel Prompts")
	}

	st := &Stats{
		Responses: make([]serve.Response, cfg.Requests),
		Outcomes:  map[string]int{},
	}
	var wg sync.WaitGroup
	for k := 0; k < cfg.Streams; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := k; r < cfg.Requests; r += cfg.Streams {
				if ctx.Err() != nil {
					return
				}
				st.Responses[r] = tgt.Submit(ctx, buildRequest(cfg, r))
			}
		}(k)
	}
	wg.Wait()

	var lats []time.Duration
	for _, resp := range st.Responses {
		switch {
		case resp.Err == nil:
			st.OK++
		case errors.Is(resp.Err, context.DeadlineExceeded):
			st.DeadlineExceeded++
		case errors.Is(resp.Err, context.Canceled):
			st.Canceled++
		default:
			st.Failed++
		}
		if resp.Injected {
			st.Injected++
		}
		if resp.Fired {
			st.Fired++
		}
		if resp.Outcome != "" {
			st.Outcomes[resp.Outcome]++
		}
		if resp.Latency > 0 {
			lats = append(lats, resp.Latency)
			if cfg.SLO > 0 && resp.Latency > cfg.SLO {
				st.SLOViolations++
			}
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		st.P50 = percentile(lats, 0.50)
		st.P90 = percentile(lats, 0.90)
		st.P99 = percentile(lats, 0.99)
		st.Max = lats[len(lats)-1]
	}
	return st, nil
}

// buildRequest materializes request r of the configured load.
func buildRequest(cfg Config, r int) serve.Request {
	i := r % len(cfg.Prompts)
	req := serve.Request{
		ID:       fmt.Sprintf("r%05d", r),
		Prompt:   cfg.Prompts[i],
		MaxNew:   cfg.MaxNew,
		Deadline: cfg.Deadline,
		Seed:     cfg.Seed + uint64(r),
	}
	if cfg.Baselines != nil {
		req.Baseline = cfg.Baselines[i]
	}
	return req
}

// percentile reads the q-quantile from an ascending latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
