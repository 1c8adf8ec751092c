package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the traced run's spans in memory: the benchmark's own
// spans around each call it makes into a layer, and the spans the
// program's public hooks (serve.Config.Recorder, the fabric recorders,
// core.WithSpanObserver) emit, all in the obs.Span schema. They are
// written once, when the run ends.
type tracer struct {
	rec *obs.Recorder

	mu    sync.Mutex
	spans []obs.Span
}

func newTracer() *tracer {
	t := &tracer{}
	t.rec = obs.NewRecorder(obs.Config{Service: "bench", Sample: 1, Sink: t.add})
	return t
}

// add is the in-memory sink; the program's recorders share it.
func (t *tracer) add(sp obs.Span) error {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return nil
}

// recorder builds a recorder for one of the program's own services that
// records every root into this tracer.
func (t *tracer) recorder(service string) *obs.Recorder {
	return obs.NewRecorder(obs.Config{Service: service, Sample: 1, Sink: t.add})
}

// start opens a new trace and returns its root context; the root span
// itself is recorded by end once its duration is known.
func (t *tracer) start() obs.SpanContext { return t.rec.StartTrace() }

func (t *tracer) end(ctx obs.SpanContext, name string, start time.Time, d time.Duration, attrs ...obs.Attr) {
	t.rec.Record(obs.NewSpan(ctx, "", name, start, d, attrs...))
}

// child records a finished span under parent and returns its context.
func (t *tracer) child(parent obs.SpanContext, name string, start time.Time, d time.Duration, attrs ...obs.Attr) obs.SpanContext {
	ctx := t.rec.Child(parent)
	t.rec.Record(obs.NewSpan(ctx, parent.Span, name, start, d, attrs...))
	return ctx
}

// when is the tracer for a traced chunk and nil for an untraced one.
func (t *tracer) when(traced bool) *tracer {
	if traced {
		return t
	}
	return nil
}

// count is the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []obs.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]obs.Span(nil), t.spans...)
}

// write dumps every span as JSONL.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	w, err := obs.OpenSpans(path)
	if err != nil {
		return err
	}
	for _, sp := range t.snapshot() {
		if err := w.Write(sp); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// spanTime is the time of all spans of one name.
type spanTime struct {
	total, self float64 // seconds
	n           int
}

// selfTimes sums, per span name, the spans' durations and their self
// time: a span's duration minus what its child spans cover. Children of
// one span run one after another everywhere this is used (a trial's
// phases, a worker's trials), so their durations add.
func selfTimes(spans []obs.Span) map[string]spanTime {
	covered := map[string]float64{}
	for _, sp := range spans {
		if sp.Parent != "" {
			covered[sp.Parent] += sp.Seconds
		}
	}
	out := map[string]spanTime{}
	for _, sp := range spans {
		st := out[sp.Name]
		st.n++
		st.total += sp.Seconds
		if self := sp.Seconds - covered[sp.ID]; self > 0 {
			st.self += self
		}
		out[sp.Name] = st
	}
	return out
}

// durations collects the durations of the spans of one name.
func durations(spans []obs.Span, name string) []time.Duration {
	var out []time.Duration
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, time.Duration(sp.Seconds*float64(time.Second)))
		}
	}
	return out
}
