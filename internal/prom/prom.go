// Package prom owns what a llmfi metric looks like on the wire: the
// Prometheus text exposition format 0.0.4. Every /metrics surface
// (campaign, serve, fabric coordinator, fabric worker, fleet fan-in)
// renders through Writer, every latency histogram is a Hist, and the
// fan-in reads the workers back with Parse — so an escaping or
// number-format rule is decided here once. It imports only the standard
// library and the version constant.
package prom

import (
	"io"
	"math"
	"strconv"

	"repro/internal/version"
)

// ContentType is the Content-Type every llmfi /metrics endpoint serves.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one label pair of a sample.
type Label struct {
	Key string
	Val string
}

// Writer renders samples into a buffer and hands it to the destination
// in one Write at Flush. A family's HELP/TYPE lines are emitted once,
// before its first sample; samples of one family must be written
// together, as the format requires.
type Writer struct {
	out    io.Writer
	buf    []byte
	family string
}

// NewWriter returns a Writer rendering to out.
func NewWriter(out io.Writer) *Writer { return &Writer{out: out} }

// Flush writes everything rendered so far to the destination.
func (w *Writer) Flush() error {
	_, err := w.out.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Family emits the HELP and TYPE lines of a family unless it is the one
// being written already. Gauge, Counter and Histogram call it; callers
// need it only before Sample.
func (w *Writer) Family(name, typ, help string) {
	if name == w.family {
		return
	}
	w.family = name
	w.buf = append(w.buf, "# HELP "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, help...)
	w.buf = append(w.buf, "\n# TYPE "...)
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, ' ')
	w.buf = append(w.buf, typ...)
	w.buf = append(w.buf, '\n')
}

// Gauge writes one sample of a gauge family.
func (w *Writer) Gauge(name, help string, v float64, labels ...Label) {
	w.Family(name, "gauge", help)
	w.Sample(name, v, labels...)
}

// Counter writes one sample of a counter family. Counters are integers
// and render exactly, whatever their size.
func (w *Writer) Counter(name, help string, v int64, labels ...Label) {
	w.Family(name, "counter", help)
	w.series(name, "", labels)
	w.buf = strconv.AppendInt(w.buf, v, 10)
	w.buf = append(w.buf, '\n')
}

// Sample writes one sample line of the family declared last.
func (w *Writer) Sample(name string, v float64, labels ...Label) {
	w.series(name, "", labels)
	w.buf = appendFloat(w.buf, v)
	w.buf = append(w.buf, '\n')
}

// Histogram writes one histogram series: a cumulative _bucket line per
// entry of buckets (entry i counts observations in (bounds[i-1],
// bounds[i]]; entries past bounds are the +Inf overflow), then _sum and
// _count. The le label follows the caller's labels.
func (w *Writer) Histogram(name, help string, bounds []float64, buckets []int64, sum float64, count int64, labels ...Label) {
	w.Family(name, "histogram", help)
	le := append(labels[:len(labels):len(labels)], Label{Key: "le"})
	var cum int64
	for i, n := range buckets {
		cum += n
		if i < len(bounds) {
			le[len(labels)].Val = string(appendFloat(nil, bounds[i]))
		} else {
			le[len(labels)].Val = "+Inf"
		}
		w.series(name, "_bucket", le)
		w.buf = strconv.AppendInt(w.buf, cum, 10)
		w.buf = append(w.buf, '\n')
	}
	w.series(name, "_sum", labels)
	w.buf = appendFloat(w.buf, sum)
	w.buf = append(w.buf, '\n')
	w.series(name, "_count", labels)
	w.buf = strconv.AppendInt(w.buf, count, 10)
	w.buf = append(w.buf, '\n')
}

// series writes `name+suffix{labels} `, ready for the value.
func (w *Writer) series(name, suffix string, labels []Label) {
	w.buf = append(w.buf, name...)
	w.buf = append(w.buf, suffix...)
	if len(labels) > 0 {
		w.buf = append(w.buf, '{')
		w.buf = appendLabels(w.buf, labels)
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, ' ')
}

// FormatLabels renders a label set as it appears between the braces of
// a sample line, values escaped.
func FormatLabels(labels []Label) string { return string(appendLabels(nil, labels)) }

// appendLabels is the one label escaper: the exposition format knows
// exactly three escapes in a label value — \\, \" and \n — and every
// other byte, tabs and control bytes included, goes through raw. (Go's
// %q would emit \t and \x01, which the format, and Parse, read back as
// the letters t and x.)
func appendLabels(b []byte, labels []Label) []byte {
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=', '"')
		for j := 0; j < len(l.Val); j++ {
			switch c := l.Val[j]; c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
	}
	return b
}

// appendFloat renders a sample value: an integer-valued one as plain
// digits (a counter past a million stays 1234567, not 1.234567e+06),
// anything else in the shortest form that round-trips.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteBuildInfo emits the llmfi_build_info gauge every surface serves
// first. Its labels pin the build: version from internal/version — the
// single source of truth the fleet handshake also compares — and the
// schema version of whatever record stream that surface exports (trace,
// span, or wire schema).
func WriteBuildInfo(out io.Writer, schema int) error {
	w := NewWriter(out)
	w.Gauge("llmfi_build_info", "Build identity of this llmfi process.", 1,
		Label{Key: "version", Val: version.Version}, Label{Key: "schema", Val: strconv.Itoa(schema)})
	return w.Flush()
}
