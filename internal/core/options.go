package core

import (
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/tasks"
)

// Option configures a Campaign built with New.
type Option func(*Campaign)

// New assembles a Campaign from its required ingredients — model, task
// suite, fault model, trial count, and seed — plus functional options
// for everything else. This is the canonical construction path; the
// Campaign struct literal remains supported as the compatibility
// constructor for existing call sites.
func New(m *model.Model, suite *tasks.Suite, fault faults.Model, trials int, seed uint64, opts ...Option) Campaign {
	c := Campaign{Model: m, Suite: suite, Fault: fault, Trials: trials, Seed: seed}
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// WithWorkers bounds the campaign worker pool (0 = GOMAXPROCS). The
// machine's cores are divided among the workers; a worker whose decode
// loop is wider than one row spends its share on lanes, one-thread
// decode loops that split its width (WithDecodeBatch).
func WithWorkers(n int) Option {
	return func(c *Campaign) { c.Workers = n }
}

// WithExtraHook installs an additional forward-hook factory — the slot
// where deployed mitigations run, after the fault hook.
func WithExtraHook(f func() model.Hook) Option {
	return func(c *Campaign) { c.ExtraHook = f }
}

// WithGen sets the decoding settings (beam count etc.).
func WithGen(gs gen.Settings) Option {
	return func(c *Campaign) { c.Gen = gs }
}

// WithFilter restricts the injectable layers (e.g. faults.GateOnly).
func WithFilter(f faults.TargetFilter) Option {
	return func(c *Campaign) { c.Filter = f }
}

// WithABFT arms the online checksum detector (internal/abft) for every
// trial of the campaign.
func WithABFT(cfg ABFTConfig) Option {
	return func(c *Campaign) { c.ABFT = &cfg }
}

// WithDecodeBatch sets the decode-loop width: each worker keeps up to n
// trials in flight, stepping them through stacked forward passes, one
// per token on each of its lanes — L = min(threads, n) loops of
// ceil(n/L) rows on a worker with threads cores (≤1 = 1, serial decode,
// one lane). Results are identical at every width and lane count; a beam
// search's hypotheses take turns on their trial's row.
func WithDecodeBatch(n int) Option {
	return func(c *Campaign) { c.BatchDecode = n }
}

// WithReasoningOnly restricts computational-fault iterations to the
// reasoning segment of the baseline output (the CoT study, §4.3.2).
func WithReasoningOnly(on bool) Option {
	return func(c *Campaign) { c.ReasoningOnly = on }
}

// withSeedPath pins the campaign to the seed execution path — sequential
// prefill on a clone of the model, a full re-prefill per trial, one trial
// at a time — recovering the pre-engine semantics exactly. Test-only: the
// golden equivalence suite and the benchmark harness bracket the engine
// against it.
func withSeedPath() Option {
	return func(c *Campaign) {
		c.Model = c.Model.Clone()
		c.Model.SetSequentialPrefill(true)
		c.noPrefixReuse = true
	}
}
