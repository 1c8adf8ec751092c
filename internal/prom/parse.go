package prom

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Parse reads the text exposition format into samples, skipping
// comment/TYPE/HELP lines. It understands quoted label values with \\,
// \" and \n escapes — what Writer emits. Lines that do not parse are
// reported as errors: a worker /metrics surface is ours end to end, so
// malformed lines indicate a bug, not foreign input.
func Parse(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		smp, err := parseSampleLine(s)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out = append(out, smp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(s string) (Sample, error) {
	var smp Sample
	i := strings.IndexAny(s, "{ \t")
	if i < 0 {
		return smp, fmt.Errorf("no value: %q", s)
	}
	smp.Name = s[:i]
	rest := s[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest[1:])
		if err != nil {
			return smp, err
		}
		smp.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; llmfi surfaces never emit one,
	// but tolerate it for robustness.
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		rest = rest[:j]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return smp, fmt.Errorf("bad value %q: %v", rest, err)
	}
	smp.Value = v
	return smp, nil
}

// parseLabels parses `key="val",...}` returning the labels and the text
// after the closing brace.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	for {
		s = strings.TrimLeft(s, ", ")
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		key := s[:eq]
		s = s[eq+1:]
		if s == "" || s[0] != '"' {
			return nil, "", fmt.Errorf("unquoted label value for %q", key)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[0]
			if c == '"' {
				s = s[1:]
				break
			}
			if c == '\\' {
				if len(s) < 2 {
					return nil, "", fmt.Errorf("dangling escape in label %q", key)
				}
				if s[1] == 'n' {
					val.WriteByte('\n')
				} else {
					val.WriteByte(s[1])
				}
				s = s[2:]
				continue
			}
			val.WriteByte(c)
			s = s[1:]
		}
		labels = append(labels, Label{Key: key, Val: val.String()})
	}
}
