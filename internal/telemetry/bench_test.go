package telemetry

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// BenchmarkTransaction is the per-request telemetry transaction that
// internal/server's TestTelemetryOverheadBar holds under 2% of a warm
// classify handler, step for step: absent-traceparent check, trace
// start, one phase span, one histogram Observe, context trace-ID
// fetch, and an unretained finish of a cold-sampled tracer.
func BenchmarkTransaction(b *testing.B) {
	tracer := NewTracer(TracerConfig{SampleEvery: -1})
	hist := NewRegistry().Histogram("bench_seconds", "bench histogram", `kind="classify"`)
	tctx := ContextWithTrace(context.Background(), tracer.Start(TraceID{}, "classify", "bench", "bench"))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, ok := ParseTraceparent(""); ok {
			b.Fatal("empty traceparent parsed")
		}
		act := tracer.Start(TraceID{}, "classify", "bench", "bench")
		act.AddSpan("classifier", 0, 1000)
		i++
		hist.Observe(time.Duration(i%1000) * time.Microsecond)
		if TraceIDFrom(tctx).IsZero() {
			b.Fatal("zero trace ID")
		}
		tracer.Finish(act, time.Microsecond, http.StatusOK, "")
	}
}
