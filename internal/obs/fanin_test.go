package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// metricsStub serves a fixed Prometheus body.
func metricsStub(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFanInAggregates: two workers' series re-export as llmfi_fleet_*
// with sum/max aggregates plus per-worker rows, and non-llmfi series
// (plus any llmfi_fleet_* input — the fleet-of-fleets guard) stay out.
func TestFanInAggregates(t *testing.T) {
	w1 := metricsStub(t, "llmfi_worker_self_trials_total 10\nllmfi_lat{q=\"p50\"} 3\ngo_goroutines 99\n")
	w2 := metricsStub(t, "llmfi_worker_self_trials_total 32\nllmfi_lat{q=\"p50\"} 5\nllmfi_fleet_worker_up{worker=\"x\"} 1\n")

	f := NewFanIn(nil)
	f.Register("w1", w1.URL)
	f.Register("w2", w2.URL)
	f.ScrapeOnce(context.Background())

	var b strings.Builder
	if err := f.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`llmfi_fleet_worker_up{worker="w1"} 1`,
		`llmfi_fleet_worker_up{worker="w2"} 1`,
		`llmfi_fleet_worker_self_trials_total{agg="sum"} 42`,
		`llmfi_fleet_worker_self_trials_total{agg="max"} 32`,
		`llmfi_fleet_worker_self_trials_total{worker="w1"} 10`,
		`llmfi_fleet_worker_self_trials_total{worker="w2"} 32`,
		`llmfi_fleet_lat{agg="sum",q="p50"} 8`,
		`llmfi_fleet_lat{worker="w2",q="p50"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fan-in output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "go_goroutines") {
		t.Error("non-llmfi series leaked into the fleet export")
	}
	if strings.Contains(out, `llmfi_fleet_fleet_`) || strings.Contains(out, `worker="x"`) {
		t.Error("fan-in re-aggregated fleet output (fleet-of-fleets guard failed)")
	}
}

// TestFanInChurn: a worker that dies mid-campaign goes up=0 but its
// last-scraped series survive in the aggregate — per-worker labels and
// all — so operators can still see what it contributed.
func TestFanInChurn(t *testing.T) {
	w1 := metricsStub(t, "llmfi_worker_self_trials_total 10\n")
	w2 := metricsStub(t, "llmfi_worker_self_trials_total 5\n")

	f := NewFanIn(nil)
	f.Register("w1", w1.URL)
	f.Register("w2", w2.URL)
	f.ScrapeOnce(context.Background())
	w2.Close() // SIGKILL'd worker: connection refused on the next scrape
	f.ScrapeOnce(context.Background())

	var b strings.Builder
	if err := f.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`llmfi_fleet_worker_up{worker="w1"} 1`,
		`llmfi_fleet_worker_up{worker="w2"} 0`,
		`llmfi_fleet_worker_self_trials_total{agg="sum"} 15`,
		`llmfi_fleet_worker_self_trials_total{worker="w2"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-churn output missing %q\n%s", want, out)
		}
	}
	if !strings.Contains(out, `llmfi_fleet_worker_scrape_errors_total{worker="w2"} 1`) {
		t.Errorf("scrape error not counted:\n%s", out)
	}
}

// TestDashboardHandler smoke-tests the zero-dependency dashboard: GET
// renders the data fn's sections and spans; non-GET is rejected.
func TestDashboardHandler(t *testing.T) {
	rec := NewRecorder(Config{Service: "t", Sample: 1})
	ctx := rec.StartTrace()
	rec.Record(Span{Trace: ctx.Trace, ID: ctx.Span, Name: "request", Seconds: 0.25})
	h := DashboardHandler(func() DashboardData {
		return DashboardData{
			Title:    "llmfi fleet",
			Version:  "0.0.0-test",
			Sections: []DashboardSection{{Title: "Serving", Rows: [][2]string{{"in flight", "3"}}}},
			Metrics:  "llmfi_x 1\n",
			Spans:    rec.Recent(8),
		}
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw := string(data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/fleet: status %d", resp.StatusCode)
	}
	for _, want := range []string{"llmfi fleet", "Serving", "in flight", "request", ctx.Trace[:8]} {
		if !strings.Contains(raw, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	post, err := http.Post(ts.URL+"/debug/fleet", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/fleet: status %d, want 405", post.StatusCode)
	}
}
