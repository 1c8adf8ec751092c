package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// RecordWriter appends records of one type to a JSONL stream, one
// record per line: buffered, mutex-guarded, and counted. It is the one
// writer behind both record streams — spans (SpanWriter, a Recorder
// sink) and propagation traces (report.TraceWriter, the runner's trace
// sink).
type RecordWriter[T any] struct {
	mu    sync.Mutex
	w     *bufio.Writer //llmfi:guardedby mu
	c     io.Closer
	count int //llmfi:guardedby mu
}

// NewRecordWriter wraps w. If w is also an io.Closer, Close closes it.
func NewRecordWriter[T any](w io.Writer) *RecordWriter[T] {
	rw := &RecordWriter[T]{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		rw.c = c
	}
	return rw
}

// Write appends one record line.
func (w *RecordWriter[T]) Write(rec T) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("marshal record: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *RecordWriter[T]) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Close flushes buffered lines and closes the underlying file, if any.
func (w *RecordWriter[T]) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.w.Flush()
	if w.c != nil {
		if cerr := w.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadRecords decodes a JSONL stream of kind records ("span", "trace").
// It refuses records whose schema (read by schemaOf) differs from want
// — a file from a different build must be re-read by that build's
// tooling, not misinterpreted — and rejects unknown fields for the same
// reason: extra keys mean the file was written by a newer schema than
// this reader understands.
func ReadRecords[T any](r io.Reader, kind string, want int, schemaOf func(*T) int) ([]T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []T
	for {
		var rec T
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s record %d: %w", kind, len(out), err)
		}
		if got := schemaOf(&rec); got != want {
			return nil, fmt.Errorf("%s record %d: schema %d, want %d", kind, len(out), got, want)
		}
		out = append(out, rec)
	}
}

// SpanWriter appends spans to a JSONL stream. Use its Write as a
// Recorder sink.
type SpanWriter = RecordWriter[Span]

// NewSpanWriter wraps w. If w is also an io.Closer, Close closes it.
func NewSpanWriter(w io.Writer) *SpanWriter { return NewRecordWriter[Span](w) }

// OpenSpans creates (truncating) a span JSONL file at path.
func OpenSpans(path string) (*SpanWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("open spans: %w", err)
	}
	return NewSpanWriter(f), nil
}

// ReadSpans decodes a span JSONL stream, refusing foreign schema
// versions and unknown fields (ReadRecords).
func ReadSpans(r io.Reader) ([]Span, error) {
	return ReadRecords(r, "span", SchemaVersion, func(sp *Span) int { return sp.Schema })
}
