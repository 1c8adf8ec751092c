package report

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync"

	"repro/internal/core"
	"repro/internal/prom"
	"repro/internal/trace"
)

// recentTrials bounds the /trials ring buffer.
const recentTrials = 64

// TrialEvent is the JSON rendering of one recent TrialDone event served
// by /trials.
type TrialEvent struct {
	Index    int    `json:"index"`
	Worker   int    `json:"worker"`
	Site     string `json:"site"`
	Fired    bool   `json:"fired"`
	Outcome  string `json:"outcome"`
	AnswerOK bool   `json:"answer_ok"`
	Steps    int    `json:"steps"`
	Traced   bool   `json:"traced"`
}

// Server exposes a live campaign over HTTP: /metrics (Prometheus text
// exposition of the telemetry snapshot, including the per-phase latency
// histograms), /healthz (liveness + campaign progress), /api/v1/trials
// (the most recent TrialDone events, newest first; the pre-v1 /trials
// path answers 301 to it), and net/http/pprof under /debug/pprof/.
// Unknown /api/v1 paths and wrong methods answer the JSON error
// envelope (APIError). Feed it events from the runner's stream via
// Observe; all handlers are safe for concurrent use while the campaign
// runs.
type Server struct {
	label string
	tel   *core.Telemetry

	mu       sync.Mutex
	done     int
	total    int
	finished bool
	errMsg   string
	recent   []TrialEvent // ring, newest at (next-1+len)%len once full
	next     int
}

// NewServer returns a Server reading metrics from tel.
func NewServer(label string, tel *core.Telemetry) *Server {
	return &Server{label: label, tel: tel}
}

// Observe folds one campaign event into the server's live state.
func (s *Server) Observe(ev core.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e := ev.(type) {
	case core.TrialDone:
		te := TrialEvent{
			Index:    e.Index,
			Worker:   e.Worker,
			Site:     e.Trial.Site.String(),
			Fired:    e.Trial.Fired,
			Outcome:  e.Trial.Outcome.Class.String(),
			AnswerOK: e.Trial.AnswerOK,
			Steps:    e.Trial.Steps,
			Traced:   e.Trace != nil,
		}
		if len(s.recent) < recentTrials {
			s.recent = append(s.recent, te)
			s.next = len(s.recent) % recentTrials
		} else {
			s.recent[s.next] = te
			s.next = (s.next + 1) % recentTrials
		}
	case core.Progress:
		s.done, s.total = e.Done, e.Total
	case core.CampaignDone:
		s.finished = true
		if e.Err != nil {
			s.errMsg = e.Err.Error()
		}
	}
}

// Handler returns the server's route mux. The conventional operational
// paths (/metrics, /healthz, /debug/pprof) stay at their expected
// locations; campaign data lives under the versioned APIVersion prefix.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc(APIVersion+"/trials", s.handleTrials)
	// The pre-v1 path survives as a permanent redirect so existing
	// dashboards and curl muscle memory keep working.
	mux.Handle("/trials", http.RedirectHandler(APIVersion+"/trials", http.StatusMovedPermanently))
	// Everything else under the API prefix is a typed JSON 404 — API
	// consumers should never see the default text/html error page.
	mux.HandleFunc(APIVersion+"/", func(w http.ResponseWriter, r *http.Request) {
		WriteAPIError(w, http.StatusNotFound, "not_found", "unknown API path "+r.URL.Path)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", prom.ContentType)
	_ = prom.WriteBuildInfo(w, trace.SchemaVersion)
	_ = WriteMetricsText(w, s.tel.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	resp := struct {
		Status   string `json:"status"`
		Label    string `json:"label"`
		Done     int    `json:"done"`
		Total    int    `json:"total"`
		Finished bool   `json:"finished"`
		Error    string `json:"error,omitempty"`
	}{Status: "ok", Label: s.label, Done: s.done, Total: s.total, Finished: s.finished, Error: s.errMsg}
	s.mu.Unlock()
	WriteJSON(w, resp)
}

func (s *Server) handleTrials(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed", r.Method+" not allowed; use GET")
		return
	}
	s.mu.Lock()
	out := make([]TrialEvent, 0, len(s.recent))
	// Newest first: walk the ring backwards from the last write.
	for i := 0; i < len(s.recent); i++ {
		j := (s.next - 1 - i + 2*recentTrials) % recentTrials
		if j < len(s.recent) {
			out = append(out, s.recent[j])
		}
	}
	s.mu.Unlock()
	WriteJSON(w, out)
}

// WriteJSON writes v as an indented JSON response body — the one JSON
// success writer of every llmfi HTTP surface.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
