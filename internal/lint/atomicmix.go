package lint

import "sort"

// AnalyzerAtomicMix forbids mixed atomic and plain access to the same
// struct field: once any code path touches a field through sync/atomic
// (or the field is declared with an atomic.Int64-style box), every other
// access must be atomic too. A single plain read beside an atomic
// counter is exactly the half-torn bug class the metrics registries
// (core.Telemetry, serve.Metrics, the fabric worker's self-counters, and
// the prom.Hist histograms the first two are built from) are most
// exposed to, and the race detector only catches it when both sides
// happen to run concurrently under -race. The facts are cross-package:
// an atomic op in the defining package poisons plain accesses observed
// anywhere else. Pre-publication construction (the field's owner still
// local to the enclosing function) is exempt; atomic-typed fields
// additionally may never be copied as plain values, which silently forks
// the counter.
var AnalyzerAtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "fields accessed via sync/atomic must never be read or written plainly",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	facts := pass.Facts
	if facts == nil {
		return
	}
	keys := make([]FieldKey, 0, len(facts.Accesses))
	for key := range facts.Accesses {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, key := range keys {
		accs := facts.Accesses[key]
		var atomicAt string
		for _, a := range accs {
			if a.Kind == AccessAtomicOp {
				atomicAt = a.Pos.String()
				break
			}
		}
		for _, a := range accs {
			if a.Pkg != pass.Path || a.Local {
				continue
			}
			switch a.Kind {
			case AccessAtomicValue:
				pass.reportAt(a.Pos, "%s.%s is an atomic value; copying it forks the counter (use Load/Store or a pointer)",
					key.Type, key.Field)
			case AccessRead, AccessWrite:
				if atomicAt == "" {
					continue
				}
				pass.reportAt(a.Pos, "plain %s of %s.%s, which is accessed atomically (e.g. %s)",
					a.Kind, key.Type, key.Field, atomicAt)
			}
		}
	}
}
