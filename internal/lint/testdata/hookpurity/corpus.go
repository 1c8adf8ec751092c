// Package hookpurity is the linter corpus for the hookpurity analyzer.
// It mirrors the model package's hook/checker shapes with self-contained
// look-alike types; the analyzer has no default scope, so no
// //llmfi:scope opt-in is needed.
package hookpurity

// LayerRef, Tensor, Weight, and Model mirror the repro/internal/model
// types by name: the analyzer matches named types, not import paths.
type LayerRef struct{ Block, Kind int }

type Tensor struct{ data []float32 }

func (t *Tensor) Set(i, j int, v float64) {}
func (t *Tensor) Fill(v float64)          {}
func (t *Tensor) At(i, j int) float64     { return 0 }

type Weight interface {
	FlipBits(i, j int, bits []int) func()
	Forward(dst, in []float32)
}

type Model struct {
	counter int
	W       *Tensor
}

// helper is NOT a model-owned type: its FlipBits is a pure value-level
// function, like numerics.FlipBits in the real tree.
type helper struct{}

func (helper) FlipBits(v float64, bits ...int) float64 { return v }

// goodHook mutates only its own output row: the sanctioned mechanism.
func goodHook(ref LayerRef, step int, out []float32) {
	out[0] = 1
	for i := range out {
		out[i] *= 2
	}
}

// pureFlipHook calls FlipBits on a non-model type: clean after the
// receiver-type refinement.
func pureFlipHook(ref LayerRef, step int, out []float32) {
	var h helper
	out[0] = float32(h.FlipBits(float64(out[0]), 1))
}

// ownStateHook captures non-model state: clean.
func ownStateHook() func(LayerRef, int, []float32) {
	seen := 0
	return func(ref LayerRef, step int, out []float32) {
		seen++
		_ = seen
	}
}

// badStoreHook stores through the captured model: flagged.
func badStoreHook(m *Model) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		m.counter++ // want `stores to model-reachable memory`
	}
}

// badTensorHook mutates a weight tensor from inside a hook: flagged.
func badTensorHook(m *Model) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		m.W.Set(0, 0, 1) // want `hook calls Set on a weight tensor`
	}
}

// badFlipHook flips weight bits from inside a hook: flagged.
func badFlipHook(w Weight) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		w.FlipBits(0, 0, []int{14}) // want `hook calls FlipBits`
	}
}

// suppressedHook demonstrates an honored suppression.
func suppressedHook(m *Model) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		m.counter++ //llmfi:allow hookpurity corpus case: an honored suppression
	}
}

// DecodeRow and Batch mirror the continuous-batching decode state
// (model.Batch / model.DecodeRow): a hook fires on behalf of exactly one
// row, so stores through a captured Batch or a sibling row are flagged.
type DecodeRow struct {
	Logits []float32
	Done   bool
}

type Batch struct {
	rows []*DecodeRow
	x    *Tensor
}

// rowLocalHook writes only its own output row even while a batch is in
// scope: clean.
func rowLocalHook(b *Batch) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		_ = len(b.rows)
		out[0] = 1
	}
}

// badSiblingRowHook reaches into a co-scheduled row's logits: flagged.
func badSiblingRowHook(b *Batch) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		b.rows[0].Logits[0] = 0 // want `stores to model-reachable memory`
	}
}

// badRetireHook retires a sibling row from inside a hook: flagged.
func badRetireHook(row *DecodeRow) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		row.Done = true // want `stores to model-reachable memory`
	}
}

// badBatchTensorHook mutates the batch's stacked activation tensor:
// flagged via the Set rule.
func badBatchTensorHook(b *Batch) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		b.x.Set(0, 0, 1) // want `hook calls Set on a weight tensor`
	}
}

// Seq and Loop mirror the decode loop that owns the rows (gen.Seq /
// gen.Loop): a hook may not reschedule the sequences it rides beside.
type Seq[T any] struct {
	Owner T
	row   *DecodeRow
}

type Loop[T any] struct {
	live []*Seq[T]
}

// badLoopHook drops every co-scheduled sequence from inside a hook:
// flagged.
func badLoopHook(l *Loop[int]) func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		l.live = nil // want `stores to model-reachable memory`
	}
}

// checker mirrors a LinearChecker implementation.
type checker struct{ events int }

// CheckLinear may update its own state and repair its output rows in
// place, but the input activation rows are read-only.
func (c *checker) CheckLinear(ref LayerRef, w Weight, pos []int, in, out []float32) {
	c.events += len(pos)
	out[pos[0]] = 0
	in[0] = 0 // want `checker writes its input activation row`
	for i := range pos {
		in[i] += 1 // want `checker writes its input activation row`
	}
}

// notAHook has a different signature, so none of the hook rules apply.
func notAHook(m *Model, out []float32) {
	m.counter++
	m.W.Fill(0)
}
