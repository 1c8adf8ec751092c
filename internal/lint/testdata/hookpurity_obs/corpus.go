// Package hookpurity_obs is the observability corpus for the
// hookpurity analyzer's alias-escape rule: a hook that builds a span or
// telemetry record may read its output row, but storing the row itself
// (or a reslice of it) into a recorder keeps a live alias of
// model-owned memory — the "observation" silently changes when a later
// forward pass reuses the row's backing array. Look-alike types
// suffice: the analyzer matches hook signatures, not import paths.
package hookpurity_obs

// LayerRef mirrors repro/internal/model.LayerRef by name.
type LayerRef struct{ Block, Kind int }

// Attr and Span mirror the repro/internal/obs shapes: a span attribute
// that (wrongly) carries a float row instead of a scalar.
type Attr struct {
	Key string
	Row []float32
}

type Span struct {
	Name  string
	Attrs []Attr
}

// Recorder mirrors an obs recorder: everything it holds outlives the
// hook call that wrote it.
type Recorder struct {
	last  []float32
	spans []Span
	attrs []Attr
	ch    chan []float32
}

// observeCopied is the sanctioned shape: the attribute owns a copy of
// the row, so later forward passes cannot rewrite the observation.
func (r *Recorder) observeCopied() func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		r.attrs = append(r.attrs, Attr{Key: "row", Row: append([]float32(nil), out...)})
		r.last = append([]float32(nil), out...)
	}
}

// observeScalars reads element values (float copies, not aliases) and
// names the row through a local — both fine.
func (r *Recorder) observeScalars() func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		row := out
		r.attrs = append(r.attrs, Attr{Key: "first", Row: []float32{row[0], out[len(out)-1]}})
	}
}

// observeAliased stores the raw row into the recorder: flagged — the
// span now aliases tensor memory the model will overwrite.
func (r *Recorder) observeAliased() func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		r.last = out // want `stores an alias of its output row into escaping state`
	}
}

// observeResliced hides the alias behind a reslice: still the same
// backing array, still flagged.
func (r *Recorder) observeResliced() func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		r.last = out[:4] // want `stores an alias of its output row into escaping state`
	}
}

// observeAttrAlias smuggles the alias through a span attribute inside
// an append: flagged — append retains the slice header in the element.
func (r *Recorder) observeAttrAlias() func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		r.attrs = append(r.attrs, Attr{Key: "row", Row: out}) // want `stores an alias of its output row into escaping state`
	}
}

// observeSent ships the alias across a channel: flagged — the receiver
// holds live tensor memory after the hook returns.
func (r *Recorder) observeSent() func(LayerRef, int, []float32) {
	return func(ref LayerRef, step int, out []float32) {
		r.ch <- out // want `sends an alias of its output row on a channel`
	}
}

// Weight mirrors the checker's weight parameter type by name.
type Weight struct{ rows int }

// checker mirrors an ABFT linear checker that records its input row.
type checker struct {
	rec *Recorder
}

// CheckLinear aliasing its input activation row is flagged the same
// way: in must stay untouched and unretained.
func (c *checker) CheckLinear(ref LayerRef, w Weight, pos []int, in, out []float32) {
	c.rec.last = in // want `stores an alias of its input row into escaping state`
	out[0] = out[0]
}
