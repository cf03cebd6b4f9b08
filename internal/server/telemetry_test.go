// Telemetry integration tests: /stats–/metrics parity from the shared
// registry, the /debug/traces surface, trace-ID propagation, and the
// structured-log contract.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/registry"
	"hypermine/internal/telemetry"
	"hypermine/internal/testutil"
)

// servingTraced boots a server with one model as "demo" and tracing on.
func servingTraced(t *testing.T, cfg telemetry.TracerConfig, opts ...Option) (*httptest.Server, *Server) {
	t.Helper()
	m := testModel(t, 7, 12, 500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("demo", m); err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithTracer(telemetry.NewTracer(cfg))}, opts...)
	srv := New(reg, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestStatsMetricsParity: every counter registered in the shared
// telemetry registry must appear on BOTH surfaces — by its JSON key in
// /stats and by its family name in /metrics — with the same value.
// Both endpoints iterate the same registration, so this pins the
// anti-drift contract rather than a hand-maintained field list.
func TestStatsMetricsParity(t *testing.T) {
	ts, srv := servingTraced(t, telemetry.TracerConfig{})

	// Drive a little traffic so the counters are not all zero: two
	// queries, one 404, and (admissionless) no shed.
	for _, p := range []string{"/v1/models/demo/dominators", "/v1/models/demo/dominators", "/v1/models/nope/dominators"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var stats map[string]any
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)

	counters := srv.Telemetry().Counters()
	if len(counters) < 5 {
		t.Fatalf("registry has %d counters, want >= 5", len(counters))
	}
	nonzero := false
	for _, c := range counters {
		jv, ok := stats[c.JSONKey()]
		if !ok {
			t.Errorf("/stats missing counter key %q", c.JSONKey())
			continue
		}
		got := int64(jv.(float64))
		if got != c.Load() {
			t.Errorf("/stats %s = %d, registry = %d", c.JSONKey(), got, c.Load())
		}
		want := c.Name() + " " + strconvI(c.Load()) + "\n"
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
		if got > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("all counters zero after traffic; parity check is vacuous")
	}
}

func strconvI(v int64) string {
	var b []byte
	if v == 0 {
		return "0"
	}
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// TestTraceHeaderAndTracesEndpoint drives a cold rules query (which
// really mines, so a tiny slow threshold must retain it), then checks
// the X-Trace-Id contract and the /debug/traces span tree.
func TestTraceHeaderAndTracesEndpoint(t *testing.T) {
	ts, _ := servingTraced(t, telemetry.TracerConfig{SlowThreshold: time.Nanosecond})

	resp, err := http.Get(ts.URL + "/v1/models/demo/rules?head=A00")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("rules query: %d", resp.StatusCode)
	}
	tid := resp.Header.Get("X-Trace-Id")
	if !traceIDRe.MatchString(tid) {
		t.Fatalf("X-Trace-Id %q is not 32 lowercase hex", tid)
	}

	var traces struct {
		SlowThresholdNs int64              `json:"slow_threshold_ns"`
		Slow            []*telemetry.Trace `json:"slow"`
		Recent          []*telemetry.Trace `json:"recent"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &traces); code != 200 {
		t.Fatalf("/debug/traces: %d", code)
	}
	if traces.SlowThresholdNs != 1 {
		t.Fatalf("slow_threshold_ns = %d, want 1", traces.SlowThresholdNs)
	}
	var tr *telemetry.Trace
	for _, cand := range traces.Slow {
		if cand.ID.String() == tid {
			tr = cand
		}
	}
	if tr == nil {
		t.Fatalf("trace %s not retained in slow ring (%d slow traces)", tid, len(traces.Slow))
	}
	if tr.Kind != "rules" || tr.Model != "demo" || tr.Status != 200 || tr.Reason != "slow" {
		t.Fatalf("trace = %+v, want kind=rules model=demo status=200 retained=slow", tr)
	}
	if tr.Duration <= 0 {
		t.Fatalf("trace duration %d, want > 0", tr.Duration)
	}
	// Phase attribution: the cold rules query mines, so the span tree
	// must be nonempty and include the rules phase with sane offsets.
	if len(tr.Spans) == 0 {
		t.Fatal("slow trace has no spans")
	}
	foundRules := false
	for _, sp := range tr.Spans {
		if sp.StartNs < 0 || sp.DurationNs < 0 {
			t.Fatalf("span %+v has negative offset or duration", sp)
		}
		if sp.Phase == "rules" {
			foundRules = true
		}
	}
	if !foundRules {
		t.Fatalf("spans %+v missing rules phase", tr.Spans)
	}
}

// TestTraceparentAdoption: an inbound W3C traceparent header's trace
// ID is adopted (echoed in X-Trace-Id) at every front door — a query,
// an :append, a PUT and a DELETE — and a malformed one is ignored and a
// fresh ID minted.
func TestTraceparentAdoption(t *testing.T) {
	ts, _ := servingTraced(t, telemetry.TracerConfig{})
	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, testModel(t, 8, 10, 400), core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/v1/models/demo/dominators", nil},
		{http.MethodPost, "/v1/models/demo:append", []byte(`{"rows":[]}`)},
		{http.MethodPut, "/v1/models/other", snap.Bytes()},
		{http.MethodDelete, "/v1/models/other", nil},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader(c.body))
		req.Header.Set("traceparent", inbound)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s %s: status %d", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Trace-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("%s %s: X-Trace-Id = %q, want the inbound traceparent trace-id", c.method, c.path, got)
		}
	}

	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models/demo/dominators", nil)
	req2.Header.Set("traceparent", "00-zzzz-bad-01")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); !traceIDRe.MatchString(got) || got == strings.Repeat("0", 32) {
		t.Fatalf("malformed traceparent: X-Trace-Id = %q, want a fresh minted ID", got)
	}
}

// TestTracesEndpointGated: without WithTracer, /debug/traces is not
// mounted and queries carry no X-Trace-Id.
func TestTracesEndpointGated(t *testing.T) {
	ts, _, _ := serving(t)
	if code := getJSON(t, ts.URL+"/debug/traces", nil); code != 404 {
		t.Fatalf("/debug/traces without tracer: %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/models/demo/dominators")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("X-Trace-Id = %q without tracer, want empty", got)
	}
}

// TestErrorTraceRetained: a 404 through the query funnel is an errored
// request, so its trace lands in the always-retain ring even with
// sampling disabled.
func TestErrorTraceRetained(t *testing.T) {
	ts, _ := servingTraced(t, telemetry.TracerConfig{SampleEvery: -1})
	resp, err := http.Get(ts.URL + "/v1/models/ghost/dominators")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("ghost model: %d, want 404", resp.StatusCode)
	}
	tid := resp.Header.Get("X-Trace-Id")

	var traces tracesResponse
	if code := getJSON(t, ts.URL+"/debug/traces", &traces); code != 200 {
		t.Fatalf("/debug/traces: %d", code)
	}
	for _, tr := range traces.Slow {
		if tr.ID.String() == tid {
			if tr.Status != 404 || tr.Reason != "error" || tr.Err == "" {
				t.Fatalf("errored trace = %+v, want status=404 retained=error with message", tr)
			}
			return
		}
	}
	t.Fatalf("404 trace %s not retained (slow ring has %d)", tid, len(traces.Slow))
}

// TestSlowLogPinsTrace: the slow-query log line and the retained trace
// carry the same trace ID, with structured slog fields (JSON handler,
// time scrubbed for determinism).
func TestSlowLogPinsTrace(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	h := slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), &slog.HandlerOptions{
		Level: slog.LevelWarn,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey || a.Key == "duration" {
				return slog.Attr{} // drop the wall-clock attrs
			}
			return a
		},
	})
	// Sampling off: only the slow-log Pin keeps this trace resolvable.
	ts, _ := servingTraced(t, telemetry.TracerConfig{SampleEvery: -1},
		WithSlowQueryLog(time.Nanosecond), WithLogger(slog.New(h)))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models/demo/dominators", nil)
	req.Header.Set("X-Tenant", "ops")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tid := resp.Header.Get("X-Trace-Id")

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	var line map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(out, "\n", 2)[0]), &line); err != nil {
		t.Fatalf("slow log is not one JSON object per line: %v (%q)", err, out)
	}
	for k, want := range map[string]any{
		"level": "WARN", "msg": "slow query", "kind": "dominators",
		"model": "demo", "tenant": "ops", "status": float64(200), "trace_id": tid,
	} {
		if got := line[k]; got != want {
			t.Fatalf("slow log %s = %v, want %v (line %v)", k, got, want, line)
		}
	}

	// The Pin must make the logged trace resolvable at /debug/traces
	// even though sampling is disabled and the query wasn't slow by the
	// tracer's own threshold.
	var traces tracesResponse
	if code := getJSON(t, ts.URL+"/debug/traces", &traces); code != 200 {
		t.Fatalf("/debug/traces: %d", code)
	}
	for _, tr := range traces.Slow {
		if tr.ID.String() == tid {
			if tr.Reason != "pinned" && tr.Reason != "slow" {
				t.Fatalf("pinned trace retained as %q", tr.Reason)
			}
			return
		}
	}
	t.Fatalf("logged trace %s not pinned in retention ring", tid)
}

// TestTracedPathGoroutines: the traced query path must not leak
// goroutines (the tracer is ring-buffer state, not workers).
func TestTracedPathGoroutines(t *testing.T) {
	base := testutil.GoroutineBaseline()
	ts, _ := servingTraced(t, telemetry.TracerConfig{SlowThreshold: time.Nanosecond})
	for i := 0; i < 20; i++ {
		resp, err := http.Get(ts.URL + "/v1/models/demo/dominators")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	testutil.CheckGoroutines(t.Fatalf, base, 0, 5*time.Second)
}
