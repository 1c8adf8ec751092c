package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/token"
)

// HTTPTarget fires requests at a remote serving endpoint over the wire
// API — the loadgen arm of the CI serve-smoke job. Token prompts are
// rendered to words through the vocabulary (the wire format carries
// text), so special tokens are elided; use the in-process Engine target
// when exact prompt-token fidelity matters.
type HTTPTarget struct {
	// Base is the server root, e.g. "http://127.0.0.1:9419".
	Base string
	// Vocab renders prompt tokens to wire text.
	Vocab *token.Vocab
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

// Submit implements Target over the wire API. A request the server
// ended on its own deadline or cancellation fails with an error wrapping
// context.DeadlineExceeded or context.Canceled, so Run counts it where
// it would count the in-process engine's.
func (t *HTTPTarget) Submit(ctx context.Context, req serve.Request) serve.Response {
	start := time.Now()
	fail := func(err error) serve.Response {
		return serve.Response{ID: req.ID, Latency: time.Since(start), Err: err}
	}
	wire := map[string]any{
		"id":     req.ID,
		"prompt": t.Vocab.Decode(req.Prompt),
		"seed":   req.Seed,
	}
	if req.MaxNew > 0 {
		wire["max_tokens"] = req.MaxNew
	}
	if req.Deadline > 0 {
		wire["deadline_ms"] = req.Deadline.Milliseconds()
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return fail(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		t.Base+report.APIVersion+"/generate", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	hres, err := client.Do(hreq)
	if err != nil {
		return fail(err)
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, 1<<20))
	if err != nil {
		return fail(err)
	}
	if hres.StatusCode != http.StatusOK {
		// Deliberately tolerant sniff: the error body may be a typed
		// envelope or proxy plaintext; extra fields must not hide it.
		var env report.APIError
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" { //llmfi:allow wireschema error-envelope sniff is tolerant by design
			cause := errors.New(env.Error.Message)
			switch env.Error.Code {
			case "deadline_exceeded":
				cause = context.DeadlineExceeded
			case "canceled":
				cause = context.Canceled
			}
			return fail(fmt.Errorf("loadgen: %s (%d): %w", env.Error.Code, hres.StatusCode, cause))
		}
		return fail(fmt.Errorf("loadgen: status %d", hres.StatusCode))
	}
	// Strict decode of the success payload: this struct mirrors the
	// server's wireGenerateResponse field-for-field (latency_ms included,
	// even though the harness reports its own client-observed latency),
	// so serve-side schema growth breaks the loadgen loudly.
	var out struct {
		ID        string  `json:"id"`
		Text      string  `json:"text"`
		Tokens    []int   `json:"tokens"`
		Steps     int     `json:"steps"`
		LatencyMS float64 `json:"latency_ms"`
		Injected  bool    `json:"injected"`
		Fired     bool    `json:"fired"`
		Site      string  `json:"site"`
		Surface   string  `json:"surface"`
		Outcome   string  `json:"outcome"`
		Detected  int     `json:"detected"`
	}
	if err := report.StrictUnmarshal(data, &out); err != nil {
		return fail(err)
	}
	return serve.Response{
		ID:       out.ID,
		Tokens:   out.Tokens,
		Text:     out.Text,
		Steps:    out.Steps,
		Latency:  time.Since(start),
		Injected: out.Injected,
		Fired:    out.Fired,
		Site:     out.Site,
		Surface:  out.Surface,
		Outcome:  out.Outcome,
		Detected: out.Detected,
	}
}
