package prom

import (
	"sort"
	"sync/atomic"
	"time"
)

// ExpBounds returns the n finite bucket upper bounds (seconds) every
// llmfi latency histogram uses: 1µs, doubling per bucket. 22 of them
// reach ~2s (campaign phases, from a prefix fork to a long prefill), 26
// reach ~33.6s (served requests).
func ExpBounds(n int) []float64 {
	b := make([]float64, n)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Hist is a lock-free latency histogram over ExpBounds: n finite buckets
// with inclusive upper bounds (an observation equal to a bound lands in
// that bound's bucket) and one overflow bucket, the +Inf of the
// exposition. Observe neither locks nor allocates, so it can sit on a
// per-token path; all methods are safe for concurrent use.
type Hist struct {
	bounds   []float64
	buckets  []atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

// NewHist returns an empty histogram with n finite buckets.
func NewHist(n int) *Hist {
	return &Hist{bounds: ExpBounds(n), buckets: make([]atomic.Int64, n+1)}
}

// Observe adds one observation.
func (h *Hist) Observe(d time.Duration) {
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	h.buckets[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
}

// Reset zeroes the histogram.
func (h *Hist) Reset() {
	h.count.Store(0)
	h.sumNanos.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Load copies the per-bucket (not cumulative) counts into buckets, which
// must hold n+1 entries, and returns the observation count and the sum
// of observed seconds. Concurrent observations may land between the
// loads; each value is itself consistent.
func (h *Hist) Load(buckets []int64) (count int64, sum float64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return h.count.Load(), time.Duration(h.sumNanos.Load()).Seconds()
}
