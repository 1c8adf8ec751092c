package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/token"
)

// TestHTTPTargetStrictDecode pins the wire contract between the loadgen
// and the serve endpoint: the full wireGenerateResponse — latency_ms
// included, the field this decode once silently lacked — parses
// cleanly, and an unknown field (schema growth on the server) surfaces
// as an error instead of being dropped.
func TestHTTPTargetStrictDecode(t *testing.T) {
	var payload string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(payload))
	}))
	defer ts.Close()

	tgt := &HTTPTarget{Base: ts.URL, Vocab: token.NewVocab([]string{"a", "b"})}
	req := serve.Request{ID: "r1", Prompt: []int{4}, Seed: 9}

	payload = `{"id":"r1","text":"a b","tokens":[4,5],"steps":2,"latency_ms":1.5,` +
		`"injected":true,"fired":false,"site":"","surface":"","outcome":"ok","detected":0}`
	resp := tgt.Submit(context.Background(), req)
	if resp.Err != nil {
		t.Fatalf("full wire response rejected: %v", resp.Err)
	}
	if resp.ID != "r1" || len(resp.Tokens) != 2 || resp.Steps != 2 || resp.Outcome != "ok" || !resp.Injected {
		t.Fatalf("response mangled: %+v", resp)
	}

	payload = `{"id":"r1","text":"a","tokens":[4],"steps":1,"latency_ms":1,` +
		`"injected":false,"fired":false,"site":"","surface":"","outcome":"ok","detected":0,` +
		`"from_the_future":true}`
	resp = tgt.Submit(context.Background(), req)
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "from_the_future") {
		t.Fatalf("unknown field not rejected: %v", resp.Err)
	}
}

// TestHTTPTargetErrorEnvelope: error bodies stay tolerant — extra
// envelope fields must not hide the typed error.
func TestHTTPTargetErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":{"status":429,"code":"overloaded",` +
			`"message":"shed","envelope_extra":1}}`))
	}))
	defer ts.Close()

	tgt := &HTTPTarget{Base: ts.URL, Vocab: token.NewVocab([]string{"a"})}
	resp := tgt.Submit(context.Background(), serve.Request{ID: "r2", Prompt: []int{4}})
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "overloaded") {
		t.Fatalf("typed error envelope not surfaced: %v", resp.Err)
	}
}

// TestHTTPTargetContextErrors: a request the server ended on its own
// deadline or cancellation counts in Run's deadline or canceled column,
// as the in-process target's would, not as a failure.
func TestHTTPTargetContextErrors(t *testing.T) {
	type counts struct{ OK, Deadline, Canceled, Failed int }
	for _, tc := range []struct {
		status int
		code   string
		want   counts
	}{
		{http.StatusGatewayTimeout, "deadline_exceeded", counts{Deadline: 1}},
		{http.StatusServiceUnavailable, "canceled", counts{Canceled: 1}},
		{http.StatusServiceUnavailable, "draining", counts{Failed: 1}},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			report.WriteAPIError(w, tc.status, tc.code, "request ended by the server")
		}))
		tgt := &HTTPTarget{Base: ts.URL, Vocab: token.NewVocab([]string{"a"})}
		st, err := Run(context.Background(), tgt, Config{Requests: 1, Prompts: [][]int{{4}}})
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := (counts{st.OK, st.DeadlineExceeded, st.Canceled, st.Failed}); got != tc.want {
			t.Errorf("%s (%d): %+v, want %+v (err %v)", tc.code, tc.status, got, tc.want, st.Responses[0].Err)
		}
	}
}
