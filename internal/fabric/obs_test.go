package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/version"
)

// httpGet fetches url and returns the body as a string.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	return string(data)
}

// getStatus fetches the coordinator's fleet status.
func getStatus(t *testing.T, base string) StatusResponse {
	t.Helper()
	var st StatusResponse
	if err := json.Unmarshal([]byte(httpGet(t, base+PathStatus)), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postRaw posts req as JSON with an optional traceparent header and
// returns the raw response (caller closes the body).
func postRaw(t *testing.T, url string, req any, traceparent string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set(obs.TraceparentHeader, traceparent)
	}
	hres, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return hres
}

// runLeaseTrials executes the given campaign indices in-process and
// returns them as wire results.
func runLeaseTrials(t *testing.T, c core.Campaign, indices []int) []TrialResult {
	t.Helper()
	var out []TrialResult
	r := core.NewRunner(c, core.WithOnly(indices))
	for ev := range r.Stream(context.Background()) {
		switch e := ev.(type) {
		case core.TrialDone:
			out = append(out, TrialResult{Index: e.Index, Trial: e.Trial})
		case core.CampaignDone:
			if e.Err != nil {
				t.Fatal(e.Err)
			}
		}
	}
	return out
}

// TestFleetTraceStitch runs a real coordinator plus two workers, all
// recording spans, and checks the tentpole end-to-end property: one
// trace ID stitches coordinator-side lease spans to worker-side
// execution spans (propagated via traceparent headers on the wire), the
// coordinator counts stitched result submissions, and its /metrics
// re-exports the workers' scraped series as llmfi_fleet_* aggregates
// with per-worker labels — surviving a worker that dies mid-campaign.
func TestFleetTraceStitch(t *testing.T) {
	coRec := obs.NewRecorder(obs.Config{Service: "coordinator", Sample: 1})
	co, err := NewCoordinator(CoordinatorConfig{
		Campaign:    testCampaign(t),
		LeaseTrials: 5,
		Recorder:    coRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	type workerRig struct {
		rec *obs.Recorder
		srv *httptest.Server
	}
	rigs := make([]*workerRig, 2)
	var wg sync.WaitGroup
	errs := make([]error, len(rigs))
	for i := range rigs {
		rec := obs.NewRecorder(obs.Config{Service: "worker", Sample: 1})
		var h http.Handler
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
		}))
		wk, err := NewWorker(WorkerConfig{
			Campaign:    testCampaign(t),
			Coordinator: ts.URL,
			Name:        fmt.Sprintf("w%d", i+1),
			Poll:        10 * time.Millisecond,
			SubmitEvery: 3,
			HTTPAddr:    srv.URL,
			Recorder:    rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		h = wk.Handler()
		rigs[i] = &workerRig{rec: rec, srv: srv}
		wg.Add(1)
		go func(i int, wk *Worker) {
			defer wg.Done()
			errs[i] = wk.Run(context.Background())
		}(i, wk)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// One trace ID in both span sets: every coordinator span belongs to
	// the campaign root trace; worker lease/trial spans must join it.
	coSpans := coRec.Recent(0)
	if len(coSpans) == 0 {
		t.Fatal("coordinator recorded no spans")
	}
	coTrace := coSpans[0].Trace
	names := map[string]bool{}
	for _, sp := range coSpans {
		if sp.Trace != coTrace {
			t.Fatalf("coordinator spans span multiple traces: %s vs %s", sp.Trace, coTrace)
		}
		names[sp.Name] = true
	}
	if !names["campaign"] || !names["lease"] {
		t.Fatalf("coordinator span names = %v, want campaign + lease", names)
	}
	stitched := 0
	for _, rig := range rigs {
		for _, sp := range rig.rec.Recent(0) {
			if sp.Trace == coTrace {
				stitched++
				break
			}
		}
	}
	if stitched == 0 {
		t.Fatal("no worker span joined the coordinator's trace (traceparent stitch broken)")
	}

	// The results wire carried the stitch back: status counts it.
	st := getStatus(t, ts.URL)
	if st.StitchedResults == 0 {
		t.Fatal("StitchedResults == 0: result submissions did not echo the lease traceparent")
	}

	// Fan-in: scrape both workers, then kill one and scrape again — the
	// dead worker goes up=0 but keeps its per-worker series.
	co.FanIn().ScrapeOnce(context.Background())
	rigs[1].srv.Close()
	co.FanIn().ScrapeOnce(context.Background())
	defer rigs[0].srv.Close()

	body := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		"llmfi_build_info{version=",
		"llmfi_fabric_stitched_results_total",
		`llmfi_fleet_worker_self_trials_total{agg="sum"}`,
		`llmfi_fleet_worker_self_trials_total{worker="w1"}`,
		`llmfi_fleet_worker_self_trials_total{worker="w2"}`,
		`llmfi_fleet_worker_up{worker="w1"} 1`,
		`llmfi_fleet_worker_up{worker="w2"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("coordinator /metrics missing %q", want)
		}
	}

	dash := httpGet(t, ts.URL+"/debug/fleet")
	for _, want := range []string{"<html", "llmfi_fleet_worker_up"} {
		if !strings.Contains(dash, want) {
			t.Errorf("/debug/fleet missing %q", want)
		}
	}
}

// TestLeaseTraceparentRoundTrip drives the wire by hand: the lease
// response carries a traceparent; echoing it on results is acknowledged
// (stitched), while a malformed or foreign traceparent is ignored, never
// rejected.
func TestLeaseTraceparentRoundTrip(t *testing.T) {
	coRec := obs.NewRecorder(obs.Config{Service: "coordinator", Sample: 1})
	co, err := NewCoordinator(CoordinatorConfig{Campaign: testCampaign(t), LeaseTrials: 4, Recorder: coRec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	defer ts.Close()

	c := testCampaign(t)
	var join JoinResponse
	postJSON(t, ts.URL+PathJoin, JoinRequest{Schema: SchemaVersion, Version: version.Version, Fingerprint: c.Fingerprint()}, &join)

	// Lease over raw HTTP to reach the response header.
	req := LeaseRequest{Schema: SchemaVersion, Worker: join.Worker}
	hres := postRaw(t, ts.URL+PathLease, req, "")
	defer hres.Body.Close()
	var lease LeaseResponse
	if err := json.NewDecoder(hres.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	if lease.Lease == nil {
		t.Fatalf("no lease granted: %+v", lease)
	}
	tp, ok := obs.ParseTraceparent(hres.Header.Get(obs.TraceparentHeader))
	if !ok {
		t.Fatalf("lease response carries no traceparent (header %q)", hres.Header.Get(obs.TraceparentHeader))
	}

	// Execute one leased trial for real so the submission is valid.
	trials := runLeaseTrials(t, c, lease.Lease.Indices[:1])
	results := ResultsRequest{Schema: SchemaVersion, Worker: join.Worker, Lease: lease.Lease.ID, Trials: trials}

	// Malformed and foreign traceparents: accepted (200), not stitched.
	for _, hdr := range []string{"garbage", "00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01"} {
		res := postRaw(t, ts.URL+PathResults, ResultsRequest{Schema: SchemaVersion, Worker: join.Worker, Trials: nil}, hdr)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("traceparent %q: status %d, want 200", hdr, res.StatusCode)
		}
		res.Body.Close()
	}
	if st := getStatus(t, ts.URL); st.StitchedResults != 0 {
		t.Fatalf("foreign traceparent counted as stitched: %d", st.StitchedResults)
	}

	// The real lease context stitches.
	res := postRaw(t, ts.URL+PathResults, results, tp.Traceparent())
	if res.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", res.StatusCode)
	}
	echoed, ok := obs.ParseTraceparent(res.Header.Get(obs.TraceparentHeader))
	res.Body.Close()
	if !ok || echoed.Trace != tp.Trace {
		t.Fatalf("results response did not echo the trace: %+v ok=%v", echoed, ok)
	}
	if st := getStatus(t, ts.URL); st.StitchedResults != 1 {
		t.Fatalf("StitchedResults = %d, want 1", st.StitchedResults)
	}
}
