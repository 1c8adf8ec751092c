package report

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestTrialSpanObserver pins the one conversion of a trial's phase
// timings into a span: named "trial", a child of the given parent in its
// trace, carrying the index and one <phase>_s attribute per phase, with
// the recorder's stride applied only when each trial is its own root.
func TestTrialSpanObserver(t *testing.T) {
	phases := []trace.Span{
		{Phase: trace.PhasePrefill, Seconds: 0.5},
		{Phase: trace.PhaseDecode, Seconds: 1.25, Count: 7},
	}
	for _, tc := range []struct {
		name     string
		eachRoot bool
		want     []int64 // recorded trial indices, oldest first
	}{
		{"each trial a sampled root", true, []int64{0, 2}},
		{"every trial under a sampled parent", false, []int64{0, 1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.Config{Service: "test", Sample: 2})
			parent := rec.StartTrace()
			observe := TrialSpanObserver(rec, parent, tc.eachRoot)
			for i := 0; i < 4; i++ {
				observe(i, phases, 2*time.Second)
			}
			got := rec.Recent(0)
			if len(got) != len(tc.want) {
				t.Fatalf("recorded %d spans, want %d", len(got), len(tc.want))
			}
			for k, sp := range got {
				index := tc.want[len(tc.want)-1-k] // Recent is newest first
				if sp.Name != "trial" || sp.Service != "test" {
					t.Errorf("span %d: name %q service %q, want trial/test", k, sp.Name, sp.Service)
				}
				if sp.Trace != parent.Trace || sp.Parent != parent.Span || sp.ID == parent.Span || sp.ID == "" {
					t.Errorf("span %d: trace %s id %s parent %s, want a new child of %s/%s",
						k, sp.Trace, sp.ID, sp.Parent, parent.Trace, parent.Span)
				}
				if sp.Seconds != 2 {
					t.Errorf("span %d: %v s, want the trial's busy time 2", k, sp.Seconds)
				}
				wantAttrs := []obs.Attr{obs.Int("index", index), obs.Num("prefill_s", 0.5), obs.Num("decode_s", 1.25)}
				if !reflect.DeepEqual(sp.Attrs, wantAttrs) {
					t.Errorf("span %d: attrs %+v, want %+v", k, sp.Attrs, wantAttrs)
				}
			}
		})
	}
}
