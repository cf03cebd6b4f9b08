package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/registry"
	"hypermine/internal/telemetry"
	"hypermine/internal/testutil"
)

// overheadBar fails unless part costs under 2% of one warm
// single-observation classify through the handler of a server with
// admission and tracing off, on the 12x1500 fixture. The handler (mux,
// JSON decode, engine, JSON encode) is the smallest unit a real request
// pays; a raw warm classify is ~100 ns, where 2% is below clock
// resolution. part and the handler are timed interleaved.
func overheadBar(t *testing.T, what string, part func() error) {
	t.Helper()
	m := testModel(t, 7, 12, 1500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("bench", m); err != nil {
		t.Fatal(err)
	}
	sv := reg.Acquire("bench")
	abc, err := sv.Engine().Classifier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]int{}
	for j, a := range abc.Dominator() {
		values[m.H.VertexName(a)] = 1 + j%3
	}
	body, err := json.Marshal(classifyRequest{Target: m.H.VertexName(abc.Targets()[0]), Values: values})
	sv.Release()
	if err != nil {
		t.Fatal(err)
	}
	h := New(reg, WithLogger(slog.New(slog.DiscardHandler))).Handler()
	classify := func() error {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/bench/classify", bytes.NewReader(body))
		req.Header.Set("X-Tenant", "bench")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("classify: code %d: %s", w.Code, w.Body)
		}
		return nil
	}
	if err := classify(); err != nil {
		t.Fatal(err)
	}
	handlerNs, partNs := testutil.BestOfPair(t, classify, part)
	pct := partNs / handlerNs * 100
	t.Logf("%s: %.0f ns / warm classify handler %.0f ns = %.2f%% (bar < 2%%)", what, partNs, handlerNs, pct)
	if pct >= 2 {
		t.Errorf("%s costs %.2f%% of the warm classify handler, want < 2%%", what, pct)
	}
}

// TestAdmissionOverheadBar: the admission round trip, AdmitInto + Done
// with every mechanism active (tenant and model token buckets, the
// cheap-class gate, the circuit breaker) and nothing shedding.
func TestAdmissionOverheadBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	ctl := admit.NewController(admit.Config{
		TenantRate: 1e12, TenantBurst: 1e12,
		ModelRate: 1e12, ModelBurst: 1e12,
		CheapCapacity: 64, CheapQueue: 64,
		ExpensiveCapacity: 8, ExpensiveQueue: 16,
		BreakerFailures: 100,
	})
	ctx := context.Background()
	overheadBar(t, "admission ticket", func() error {
		var tk admit.Ticket
		if ok, rej, err := ctl.AdmitInto(ctx, &tk, "bench", "bench", admit.Cheap); !ok {
			return fmt.Errorf("ticket rejected: %v %v", rej, err)
		}
		tk.Done(admit.OutcomeOK)
		return nil
	})
}

// TestTelemetryOverheadBar: the per-request telemetry transaction of a
// cold-sampled tracer: absent-traceparent check, trace start, one
// phase span, one histogram Observe, context trace-ID fetch, and an
// unretained finish.
func TestTelemetryOverheadBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: -1})
	hist := telemetry.NewRegistry().Histogram("bench_seconds", "bench histogram", `kind="classify"`)
	tctx := telemetry.ContextWithTrace(context.Background(), tracer.Start(telemetry.TraceID{}, "classify", "bench", "bench"))
	i := 0
	overheadBar(t, "telemetry transaction", func() error {
		if _, ok := telemetry.ParseTraceparent(""); ok {
			return errors.New("empty traceparent parsed")
		}
		act := tracer.Start(telemetry.TraceID{}, "classify", "bench", "bench")
		act.AddSpan("classifier", 0, 1000)
		i++
		hist.Observe(time.Duration(i%1000) * time.Microsecond)
		if telemetry.TraceIDFrom(tctx).IsZero() {
			return errors.New("zero trace ID")
		}
		tracer.Finish(act, time.Microsecond, http.StatusOK, "")
		return nil
	})
}
