package prom_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/prom"
	"repro/internal/report"
	"repro/internal/serve"
)

// hostileName is a worker name carrying every byte the exposition
// format escapes (backslash, quote, newline) and one it must not (tab).
// Worker names arrive unvalidated over the wire (JoinRequest.Worker).
const hostileName = "a\"b\\c\n\t"

// selfSurface serves a real fabric worker's own /metrics.
func selfSurface(t *testing.T, name string) *httptest.Server {
	t.Helper()
	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Campaign: core.Campaign{Trials: 1}, Coordinator: "http://coordinator.invalid", Name: name,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// get renders one HTTP surface.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != prom.ContentType {
		t.Errorf("%s: Content-Type %q, want %q", url, ct, prom.ContentType)
	}
	return string(body)
}

// fanIn scrapes the named worker-self surfaces once and renders the
// fleet export.
func fanIn(t *testing.T, names ...string) string {
	t.Helper()
	f := obs.NewFanIn(nil)
	for _, name := range names {
		f.Register(name, selfSurface(t, name).URL)
	}
	f.ScrapeOnce(context.Background())
	var b strings.Builder
	if err := f.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// surfaces renders every llmfi metrics surface from a fixed state, with
// the hostile worker name wherever a surface carries worker names and a
// counter past a million wherever it carries integers.
func surfaces(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	var b strings.Builder

	if err := report.WriteMetricsText(&b, core.TelemetrySnapshot{
		TotalTrials: 2000000, DoneTrials: 64, FiredRate: 0.625, HookFires: 1234567,
		Workers:           []core.WorkerSnapshot{{Trials: 40, BusySeconds: 1.5}, {Trials: 24}},
		PhaseBucketBounds: []float64{0.001, 0.01},
		Phases: []core.PhaseSnapshot{
			{Phase: "prefill", Count: 6, SumSeconds: 0.012, Buckets: []int64{1, 3, 2}},
			{Phase: "decode", Count: 2, SumSeconds: 0.5, Buckets: []int64{0, 0, 2}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	out["campaign"] = b.String()

	b.Reset()
	var ms serve.MetricsSnapshot
	ms.Tokens = 1234567
	ms.LatBuckets[3], ms.LatBuckets[len(ms.LatBuckets)-1], ms.LatCount, ms.LatSum = 2, 1, 3, 40.5
	ms.ITBuckets[9], ms.ITCount, ms.ITSum = 5, 5, 0.0025
	if err := serve.WriteMetricsText(&b, ms); err != nil {
		t.Fatal(err)
	}
	out["serve"] = b.String()

	b.Reset()
	if err := fabric.WriteFleetMetricsText(&b, fabric.StatusResponse{
		Trials: 2000000, Done: 1500000, ReissuedLeases: 1234567, TrialsPerSec: 16.5,
		Workers: []fabric.WorkerStatus{{Worker: hostileName, Trials: 1500000, LastSeenSec: 0.5}, {Worker: "w2"}},
	}); err != nil {
		t.Fatal(err)
	}
	out["fabric"] = b.String()

	out["worker-self"] = get(t, selfSurface(t, hostileName).URL+"/metrics")
	out["fan-in"] = fanIn(t, hostileName, "w2")
	return out
}

// TestSurfacesWellFormed: every surface parses with prom.Parse, declares
// each family exactly once (one HELP, one TYPE, before its samples), and
// renders histograms cumulatively, ending in a +Inf bucket equal to
// _count.
func TestSurfacesWellFormed(t *testing.T) {
	for name, text := range surfaces(t) {
		samples, err := prom.Parse(strings.NewReader(text))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(samples) == 0 {
			t.Errorf("%s: no samples", name)
		}
		help, typ := map[string]int{}, map[string]string{}
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				help[strings.Fields(rest)[0]]++
			} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				f := strings.Fields(rest)
				if _, dup := typ[f[0]]; dup {
					t.Errorf("%s: family %s has two TYPE lines", name, f[0])
				}
				typ[f[0]] = f[1]
			}
		}
		for fam, n := range help {
			if n != 1 || typ[fam] == "" {
				t.Errorf("%s: family %s has %d HELP lines and TYPE %q", name, fam, n, typ[fam])
			}
		}
		if len(help) != len(typ) {
			t.Errorf("%s: %d HELP lines for %d TYPE lines", name, len(help), len(typ))
		}

		// last cumulative bucket value and its le, per histogram series
		type series struct {
			last float64
			le   string
		}
		hist := map[string]*series{}
		for _, s := range samples {
			fam, part := s.Name, ""
			if typ[fam] == "" {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if base, ok := strings.CutSuffix(s.Name, suffix); ok && typ[base] == "histogram" {
						fam, part = base, suffix
					}
				}
			}
			if typ[fam] == "" {
				t.Errorf("%s: sample %s belongs to no declared family", name, s.Name)
			}
			if (typ[fam] == "histogram") != (part != "") {
				t.Errorf("%s: sample %s does not fit its family's type %s", name, s.Name, typ[fam])
			}
			var rest []prom.Label
			le := ""
			for _, l := range s.Labels {
				if l.Key == "le" {
					le = l.Val
				} else {
					rest = append(rest, l)
				}
			}
			key := fam + "{" + prom.FormatLabels(rest) + "}"
			switch part {
			case "_bucket":
				h := hist[key]
				if h == nil {
					h = &series{}
					hist[key] = h
				}
				if s.Value < h.last {
					t.Errorf("%s: %s buckets not cumulative at le=%s", name, key, le)
				}
				h.last, h.le = s.Value, le
			case "_count":
				if h := hist[key]; h == nil || h.le != "+Inf" || h.last != s.Value {
					t.Errorf("%s: %s count %v does not match its last bucket %+v", name, key, s.Value, h)
				}
				delete(hist, key)
			}
		}
		for key := range hist {
			t.Errorf("%s: histogram %s has buckets but no _count", name, key)
		}
	}
}

// TestSurfacesIntegerSamples: a count past a million reads 1234567 on
// every surface, never 1.234567e+06 — counters through the writer's
// integer form, integer-valued gauges and the fan-in's re-exported sums
// through its float form.
func TestSurfacesIntegerSamples(t *testing.T) {
	s := surfaces(t)
	for surface, line := range map[string]string{
		"campaign": "llmfi_hook_fires_total 1234567\n",
		"serve":    "llmfi_serve_tokens_total 1234567\n",
		"fabric":   "llmfi_fabric_leases_reissued_total 1234567\n",
	} {
		if !strings.Contains(s[surface], line) {
			t.Errorf("%s surface missing %q", surface, line)
		}
	}
	for surface, text := range s {
		if strings.Contains(text, "e+0") {
			t.Errorf("%s surface renders an integer in exponent form:\n%s", surface, text)
		}
	}
}

// TestWorkerNameRoundTrips: a worker name full of escapable bytes comes
// back from Write→Parse as the identical string on every surface that
// carries worker names — the coordinator's fabric families, and the
// fan-in's liveness rows and per-worker cells scraped off that worker's
// own surface. (Go's %q, which the writers used before, turns the tab
// into \t, which the format reads back as the letter t.)
func TestWorkerNameRoundTrips(t *testing.T) {
	s := surfaces(t)
	for surface, families := range map[string][]string{
		"fabric": {"llmfi_fabric_worker_trials", "llmfi_fabric_worker_last_seen_seconds"},
		"fan-in": {"llmfi_fleet_worker_up", "llmfi_fleet_worker_scrapes_total", "llmfi_fleet_worker_self_trials_total", "llmfi_fleet_build_info"},
	} {
		samples, err := prom.Parse(strings.NewReader(s[surface]))
		if err != nil {
			t.Fatalf("%s: %v", surface, err)
		}
		for _, fam := range families {
			found := false
			for _, smp := range samples {
				for _, l := range smp.Labels {
					if smp.Name == fam && l.Key == "worker" && l.Val == hostileName {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("%s: no %s sample carries worker=%q\n%s", surface, fam, hostileName, s[surface])
			}
		}
	}
}
