package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dtbgc/dtbgc/internal/daemon"
)

// validSnapshot marshals a live server's own snapshot — the one
// artifact the checker must always accept.
func validSnapshot(t *testing.T) []byte {
	t.Helper()
	s := daemon.NewServer(daemon.Config{Workers: 2})
	data, err := json.Marshal(s.Metrics())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return data
}

func TestCheckMetricsAcceptsLiveSnapshot(t *testing.T) {
	problems, err := checkMetrics(bytes.NewReader(validSnapshot(t)))
	if err != nil {
		t.Fatalf("checkMetrics: %v", err)
	}
	if len(problems) != 0 {
		t.Fatalf("live snapshot rejected: %v", problems)
	}
}

func TestCheckMetricsRejectsBadDocuments(t *testing.T) {
	mutate := func(change func(m map[string]any)) string {
		var m map[string]any
		if err := json.Unmarshal(validSnapshot(t), &m); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		change(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return string(out)
	}
	cases := []struct {
		name  string
		input string
		want  string // substring of the expected problem
	}{
		{"not json", "nope", "not a JSON object"},
		{"missing field", mutate(func(m map[string]any) { delete(m, "evals_served") }), `missing field "evals_served"`},
		{"unknown field", mutate(func(m map[string]any) { m["surprise"] = 1 }), `unknown field "surprise"`},
		{"wrong type", mutate(func(m map[string]any) { m["memo_hits"] = "three" }), `field "memo_hits" is not a uint64 (got string)`},
		{"negative gauge", mutate(func(m map[string]any) { m["queued"] = -2 }), "negative gauge"},
		{"identity broken", mutate(func(m map[string]any) { m["memo_hits"] = 5 }), "serving identity broken"},
		{"tape exceeds cold", mutate(func(m map[string]any) { m["tape_hits"] = 7 }), "tape_hits 7 exceeds cold_evals"},
		{"negative uptime", mutate(func(m map[string]any) { m["uptime_seconds"] = -1 }), "finite and non-negative"},
		{"p50 above p99", mutate(func(m map[string]any) { m["service_p50_ms"] = 9.5 }), "exceeds service_p99_ms"},
		{"trailing data", string(validSnapshot(t)) + "{}", "not a JSON object"},
	}
	for _, tc := range cases {
		problems, err := checkMetrics(strings.NewReader(tc.input))
		if err != nil {
			t.Fatalf("%s: checkMetrics: %v", tc.name, err)
		}
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no problem containing %q; got %v", tc.name, tc.want, problems)
		}
	}
}

// TestCheckMetricsAfterTraffic runs real requests through a server so
// the counters are non-trivial, then validates what /v1/metrics
// actually returned — the closed-loop version of the CI smoke job.
func TestCheckMetricsAfterTraffic(t *testing.T) {
	s := daemon.NewServer(daemon.Config{Workers: 2, RetryAfter: time.Second})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := daemon.NewClient(hs.URL)
	req := daemon.EvalRequest{Workload: "CFRAC", Scale: 0.1, Policy: "full", Label: "metrics/traffic"}
	for i := 0; i < 3; i++ { // one cold, two memo hits
		if _, err := c.Eval(context.Background(), &req); err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
	}
	resp, err := hs.Client().Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	//dtbvet:ignore errsink -- test response body close: checkMetrics reads the body to EOF first
	defer resp.Body.Close()
	problems, err := checkMetrics(resp.Body)
	if err != nil {
		t.Fatalf("checkMetrics: %v", err)
	}
	if len(problems) != 0 {
		t.Fatalf("live endpoint snapshot rejected: %v", problems)
	}
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if snap.ColdEvals != 1 || snap.MemoHits != 2 {
		t.Fatalf("cold/memo = %d/%d, want 1/2", snap.ColdEvals, snap.MemoHits)
	}
}
