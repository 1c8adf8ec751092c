package report

import (
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TraceWriter streams propagation-trace records as JSON Lines: one
// trace.Record object per line, schema-versioned via Record.Schema. Its
// Write satisfies the runner's trace-sink signature (core.WithTrace) and
// is safe for concurrent use, though the campaign runner already
// serializes sink calls through its collector goroutine.
type TraceWriter = obs.RecordWriter[trace.Record]

// NewTraceWriter wraps w (buffered). If w is an io.Closer, Close closes
// it after flushing.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewRecordWriter[trace.Record](w) }

// OpenTrace opens a trace file for writing. A fresh campaign truncates
// path (standard output-file semantics); a resumed campaign appends, so
// the records of the interrupted run are preserved and the file ends up
// covering exactly the sampled trials of the whole campaign — resumed
// trials are never re-executed, so append never duplicates a trial.
// appended reports whether existing records were kept.
func OpenTrace(path string, resuming bool) (f *os.File, appended bool, err error) {
	if !resuming {
		f, err = os.Create(path)
		return f, false, err
	}
	f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	if st, serr := f.Stat(); serr == nil && st.Size() > 0 {
		appended = true
	}
	return f, appended, nil
}

// ReadTraces decodes a JSONL trace stream back into records — the
// round-trip counterpart of TraceWriter for analysis and tests. It
// refuses foreign schema versions and unknown fields (obs.ReadRecords).
func ReadTraces(r io.Reader) ([]trace.Record, error) {
	return obs.ReadRecords(r, "trace", trace.SchemaVersion, func(rec *trace.Record) int { return rec.Schema })
}
