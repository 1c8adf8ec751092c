package lint

import "strings"

// Analyzers returns the full analyzer suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerHookPurity,
		AnalyzerChecksumWidth,
		AnalyzerCtxFlow,
		AnalyzerGuardedBy,
		AnalyzerAtomicMix,
		AnalyzerGoLife,
		AnalyzerWireSchema,
	}
}

// ByName resolves a subset of the suite by analyzer name; unknown names
// are reported in the error.
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	index := map[string]*Analyzer{}
	for _, a := range all {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := index[n]
		if !ok {
			known := make([]string, len(all))
			for i, a := range all {
				known[i] = a.Name
			}
			return nil, &UnknownAnalyzerError{Name: n, Known: known}
		}
		out = append(out, a)
	}
	return out, nil
}

// UnknownAnalyzerError reports a -run name that matches no analyzer,
// listing the valid names so a typo never silently runs nothing.
type UnknownAnalyzerError struct {
	Name  string
	Known []string
}

func (e *UnknownAnalyzerError) Error() string {
	return "unknown analyzer " + e.Name + " (valid: " + strings.Join(e.Known, ", ") + ")"
}
