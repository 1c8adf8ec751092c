package main

import (
	"encoding/json"
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/token"
)

// sink keeps the scalar-peak loop's result alive.
var sink float32

// measure times fn by calling it in batches until the budget is spent
// and returns the fastest batch's time per call: these are single calls
// on an otherwise idle process, where interference only ever adds time.
// It records one span per measurement, with the call count, not one per
// call: a kernel call takes about a microsecond, a span as long.
func measure(cfg config, tr *tracer, name string, fn func()) time.Duration {
	start := time.Now()
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if time.Since(t0) >= cfg.micro/20 || iters >= 1<<24 {
			break
		}
		iters *= 2
	}
	best := time.Duration(1 << 62)
	calls := 0
	for time.Since(start) < cfg.micro || calls == 0 {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		best = min(best, time.Since(t0)/time.Duration(iters))
		calls += iters
	}
	root := tr.start()
	sp := obs.NewSpan(root, "", "bench.micro."+name, start, time.Since(start))
	sp.Count = calls
	tr.rec.Record(sp)
	return best
}

func randomTensor(src *prng.Source, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(src.NormFloat64())
	}
	return t
}

// micro is the direct-call tier: each kernel and model entry point at the
// benchmark model's own shapes, timed alone. Operation counts and bytes
// are computed from the tensor sizes, not measured.
func micro(cfg config, tr *tracer, l values) error {
	m, vocab, err := benchModel()
	if err != nil {
		return err
	}
	src := prng.New(cfg.seed)
	mc := m.Cfg
	// The linear shapes of one block and the LM head: k inputs, n outputs.
	shapes := [][2]int{{mc.DModel, mc.DModel}, {mc.DModel, mc.FFHidden}, {mc.FFHidden, mc.DModel}, {mc.DModel, mc.Vocab}}
	workers := runtime.GOMAXPROCS(0)
	const tol = 1e-3

	// Scalar peak: eight independent multiply-add chains, so the loop is
	// bound by issue rate, not by latency. 16 flops per iteration.
	const peakIters = 1 << 16
	peak := measure(cfg, tr, "scalar_peak", func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6), float32(7), float32(8)
		x, y := float32(0.999), float32(0.001)
		for i := 0; i < peakIters; i++ {
			a0 = a0*x + y
			a1 = a1*x + y
			a2 = a2*x + y
			a3 = a3*x + y
			a4 = a4*x + y
			a5 = a5*x + y
			a6 = a6*x + y
			a7 = a7*x + y
		}
		sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	l["tensor.scalar_peak_gflops"] = 16 * peakIters / float64(peak)

	// gflops runs kernel over every shape with rows input rows and
	// returns the rate over all of them: flops = 2·rows·k·n per shape.
	gflops := func(name string, rows int, kernel func(out, a, w *tensor.Tensor)) (rate float64, total time.Duration) {
		tsrc := prng.New(cfg.seed) // the same tensors for every kernel
		var flops float64
		for _, s := range shapes {
			a, w, out := randomTensor(tsrc, rows, s[0]), randomTensor(tsrc, s[0], s[1]), tensor.New(rows, s[1])
			total += measure(cfg, tr, name, func() { kernel(out, a, w) })
			flops += 2 * float64(rows*s[0]*s[1])
		}
		return flops / float64(total), total
	}
	l["tensor.matvec_gflops"], _ = gflops("matvec", 1, func(out, a, w *tensor.Tensor) { tensor.MatVec(out.Data, a.Data, w) })
	var bytes, flops float64
	for _, s := range shapes {
		bytes += 4 * float64(s[0]*s[1]+s[0]+s[1])
		flops += 2 * float64(s[0]*s[1])
	}
	l["tensor.matvec_bytes_per_flop"] = bytes / flops
	l["tensor.matmulrows_gflops_n16"], _ = gflops("matmulrows", 16, func(out, a, w *tensor.Tensor) { tensor.MatMulRows(out, a, w, 16, workers) })
	var plain, checked time.Duration
	l["tensor.matmulp_gflops_m120"], plain = gflops("matmulp", 120, func(out, a, w *tensor.Tensor) { tensor.MatMulP(out, a, w, workers) })
	l["tensor.matmulchecked_gflops_m120"], checked = gflops("matmulchecked", 120, func(out, a, w *tensor.Tensor) { tensor.MatMulChecked(out, a, w, workers, tol) })
	l["tensor.checked_overhead_frac"] = ratio(float64(checked-plain), float64(plain))

	prompt := make([]int, 120)
	for i := range prompt {
		prompt[i] = token.NumReserved + src.Intn(mc.Vocab-token.NumReserved)
	}
	const newTokens = 12
	st := m.NewState()
	prefill := measure(cfg, tr, "prefill", func() {
		st.Reset()
		st.Prefill(prompt)
	})
	l["model.prefill_ms_p120"] = ms(prefill)
	l["model.prefill_tok_per_s"] = float64(len(prompt)) / prefill.Seconds()

	snap := m.NewState()
	snap.Prefill(prompt)
	work := snap.Fork()
	fork := measure(cfg, tr, "fork_into", func() { snap.ForkForInto(m, work) })
	l["model.fork_into_us"] = us(fork)
	// Twelve steps from the 120-token prefix, then back to it: the fork
	// is timed with them and taken out.
	decode := measure(cfg, tr, "decode_step", func() {
		snap.ForkForInto(m, work)
		for i := 0; i < newTokens; i++ {
			work.DecodeStep(prompt[i])
		}
	})
	step := (decode - fork) / newTokens
	l["model.decode_step_us"] = us(step)

	const width = 16
	batch := m.NewBatch(width)
	rows := make([]*model.DecodeRow, width)
	for i := range rows {
		rows[i] = &model.DecodeRow{St: snap.Fork(), Logits: make([]float32, mc.Vocab)}
	}
	batched := measure(cfg, tr, "batch_step", func() {
		for i, r := range rows {
			snap.ForkForInto(m, r.St)
			r.Tok = prompt[i]
		}
		for i := 0; i < newTokens; i++ {
			batch.Step(rows)
		}
	})
	bstep := (batched - width*fork) / newTokens
	l["model.batch_step_us_w16"] = us(bstep)
	l["model.batch_row_us"] = us(bstep) / width
	l["model.batch_speedup_vs_decode"] = ratio(us(step), us(bstep)/width)

	ref := m.LinearLayers()[0].Ref
	l["model.clone_shared_write_us"] = us(measure(cfg, tr, "clone_shared_write", func() {
		if _, err := m.CloneShared().LayerForWrite(ref); err != nil {
			panic(err) // the ref came from this model's own layer list
		}
	}))

	l["gen.generate_ms_p120_n12"] = ms(measure(cfg, tr, "generate", func() {
		gen.Generate(m, prompt, gen.Defaults(newTokens))
	}))

	rec := obs.NewRecorder(obs.Config{Service: "bench", Sample: 1})
	sp := obs.NewSpan(rec.StartTrace(), "", "probe", time.Now(), time.Millisecond, obs.Int("op", 1))
	l["obs.record_ns"] = float64(measure(cfg, tr, "record", func() { rec.Record(sp) }))

	body, err := json.Marshal(map[string]any{"id": "r00001", "prompt": vocab.Decode(prompt), "max_tokens": newTokens, "seed": 1})
	if err != nil {
		return err
	}
	lim := serve.ParseLimits{MaxSeq: mc.MaxSeq, DefaultMaxNew: 32, MaxNewCap: mc.MaxSeq}
	l["serve.parse_us"] = us(measure(cfg, tr, "parse", func() { serve.ParseGenerateRequest(body, vocab, lim) }))
	return nil
}
