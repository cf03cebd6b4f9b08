package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hypermine/internal/testutil"
)

func TestTraceIDString(t *testing.T) {
	id := TraceID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	if got := id.String(); got != "0123456789abcdeffedcba9876543210" {
		t.Fatalf("String() = %q", got)
	}
	if !(TraceID{}).IsZero() || id.IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := TraceID{Hi: 0xdeadbeefcafef00d, Lo: 0x0102030405060708}
	h := Traceparent(id)
	if len(h) != 55 || !strings.HasPrefix(h, "00-") {
		t.Fatalf("Traceparent = %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != id {
		t.Fatalf("round trip: got %v ok=%v, want %v", got, ok, id)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // too short
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // too long
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad version hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-", // version 00 is exactly 55 bytes
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // future version: '-' must follow the flags
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", h)
		}
	}
	good := []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future-fields", // §3.2.4
	}
	for _, h := range good {
		id, ok := ParseTraceparent(h)
		if !ok || id.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("ParseTraceparent(%q) = %v, %v", h, id, ok)
		}
	}
}

// FuzzParseTraceparent: the parser never panics, and whatever it
// accepts carries a non-zero ID equal to the header's trace-id field.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-xyz")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if id.IsZero() || id.String() != h[3:35] {
			t.Fatalf("ParseTraceparent(%q) accepted ID %v", h, id)
		}
	})
}

func TestMintIDUnique(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	seen := make(map[TraceID]bool)
	for i := 0; i < 10000; i++ {
		id := tr.MintID()
		if id.IsZero() || seen[id] {
			t.Fatalf("duplicate or zero ID at %d: %v", i, id)
		}
		seen[id] = true
	}
}

func fixedClock(start time.Time) func() time.Time {
	return func() time.Time { return start }
}

func TestTracerRetainsSlowAndErrored(t *testing.T) {
	start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr := NewTracer(TracerConfig{
		Ring: 8, SlowRing: 8, SampleEvery: -1,
		SlowThreshold: 10 * time.Millisecond,
		Now:           fixedClock(start),
	})

	a := tr.Start(TraceID{}, "rules", "demo", "default")
	a.AddSpan("rules", 100, 5000)
	tr.Finish(a, 20*time.Millisecond, 200, "") // slow

	b := tr.Start(TraceID{}, "classify", "demo", "default")
	tr.Finish(b, time.Microsecond, 503, "shed") // errored

	c := tr.Start(TraceID{}, "similar", "demo", "default")
	c.Pin()
	tr.Finish(c, time.Microsecond, 200, "") // pinned

	d := tr.Start(TraceID{}, "classify", "demo", "default")
	tr.Finish(d, time.Microsecond, 200, "") // unremarkable: dropped (sampling off)

	slow, recent := tr.Snapshot()
	if len(recent) != 0 {
		t.Fatalf("recent ring has %d entries, want 0", len(recent))
	}
	if len(slow) != 3 {
		t.Fatalf("slow ring has %d entries, want 3", len(slow))
	}
	// Newest first.
	if slow[0].Reason != "pinned" || slow[1].Reason != "error" || slow[2].Reason != "slow" {
		t.Fatalf("retention reasons = %s,%s,%s", slow[0].Reason, slow[1].Reason, slow[2].Reason)
	}
	if slow[2].Kind != "rules" || len(slow[2].Spans) != 1 || slow[2].Spans[0].Phase != "rules" {
		t.Fatalf("slow trace lost its spans: %+v", slow[2])
	}
	// The start is read back from the clock at Finish: the fixed clock
	// minus the 20ms duration.
	if want := start.Add(-20 * time.Millisecond); !slow[2].Start.Equal(want) {
		t.Fatalf("trace start = %v, want %v", slow[2].Start, want)
	}
}

func TestTracerAlwaysRetainSlowSurvivesFlood(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 4, SlowRing: 4, SampleEvery: 1, SlowThreshold: time.Millisecond})
	s := tr.Start(TraceID{}, "rules", "m", "t")
	tr.Finish(s, 5*time.Millisecond, 200, "") // slow
	// Flood the recent ring far past its size.
	for i := 0; i < 100; i++ {
		a := tr.Start(TraceID{}, "classify", "m", "t")
		tr.Finish(a, time.Microsecond, 200, "")
	}
	slow, recent := tr.Snapshot()
	if len(slow) != 1 || slow[0].Reason != "slow" {
		t.Fatalf("slow trace evicted by flood: %d entries", len(slow))
	}
	if len(recent) != 4 {
		t.Fatalf("recent ring = %d entries, want 4 (bounded)", len(recent))
	}
	// Bounded ring keeps the newest: seq strictly descending.
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq >= recent[i-1].Seq {
			t.Fatal("recent snapshot not newest-first")
		}
	}
}

func TestTracerRingOverflowBounded(t *testing.T) {
	tr := NewTracer(TracerConfig{Ring: 8, SlowRing: 8, SampleEvery: -1, SlowThreshold: time.Nanosecond})
	for i := 0; i < 1000; i++ {
		a := tr.Start(TraceID{}, "rules", "m", "t")
		tr.Finish(a, time.Second, 200, "")
	}
	slow, _ := tr.Snapshot()
	if len(slow) != 8 {
		t.Fatalf("slow ring = %d entries, want 8", len(slow))
	}
}

func TestTracerSpanOverflowDropped(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	a := tr.Start(TraceID{}, "rules", "m", "t")
	for i := 0; i < MaxTraceSpans+5; i++ {
		a.AddSpan("edges", int64(i), 1)
	}
	tr.Finish(a, time.Microsecond, 200, "")
	_, recent := tr.Snapshot()
	if len(recent) != 1 {
		t.Fatalf("recent = %d, want 1", len(recent))
	}
	if len(recent[0].Spans) != MaxTraceSpans || recent[0].Dropped != 5 {
		t.Fatalf("spans=%d dropped=%d", len(recent[0].Spans), recent[0].Dropped)
	}
}

func TestTracerPoolReuseResets(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: -1, SlowThreshold: time.Hour})
	a := tr.Start(TraceID{}, "rules", "m", "t")
	a.AddSpan("edges", 1, 2)
	a.Pin() // retained, but state must still reset
	id1 := a.TraceID()
	tr.Finish(a, time.Microsecond, 200, "")
	b := tr.Start(TraceID{}, "classify", "m2", "t2")
	if b.TraceID() == id1 {
		t.Fatal("reused Active kept its old trace ID")
	}
	if b.nspans != 0 || b.dropped != 0 || b.pinned.Load() {
		t.Fatalf("reused Active not reset: %+v", b)
	}
	tr.Finish(b, time.Microsecond, 200, "")
}

func TestTracerConcurrent(t *testing.T) {
	base := testutil.GoroutineBaseline()
	tr := NewTracer(TracerConfig{Ring: 16, SlowRing: 16, SampleEvery: 4, SlowThreshold: time.Millisecond})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshot readers while writers churn.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				slow, recent := tr.Snapshot()
				for _, rec := range append(slow, recent...) {
					if rec.ID.IsZero() {
						panic("published trace with zero ID")
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a := tr.Start(TraceID{}, "rules", "m", "t")
				a.AddSpan("edges", 0, 10)
				d := time.Microsecond
				if i%50 == 0 {
					d = 2 * time.Millisecond
				}
				tr.Finish(a, d, 200, "")
			}
		}(w)
	}
	close(stop)
	wg.Wait()
	testutil.CheckGoroutines(t.Fatalf, base, 0, 5*time.Second)
}

func TestContextTracePropagation(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	a := tr.Start(TraceID{}, "rules", "m", "t")
	ctx := ContextWithTrace(context.Background(), a)
	if TraceFrom(ctx) != a {
		t.Fatal("TraceFrom lost the active trace")
	}
	if TraceIDFrom(ctx) != a.TraceID() {
		t.Fatal("TraceIDFrom mismatch")
	}
	if !TraceIDFrom(context.Background()).IsZero() {
		t.Fatal("TraceIDFrom on bare ctx should be zero")
	}
	if TraceFrom(context.Background()).TraceID() != (TraceID{}) {
		t.Fatal("nil Active TraceID should be zero")
	}
	tr.Finish(a, 0, 200, "")
}

func TestColdSampledPathNoAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under race instrumentation")
	}
	tr := NewTracer(TracerConfig{SampleEvery: -1, SlowThreshold: time.Hour})
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() { _ = TraceIDFrom(ctx) }); n != 0 {
		t.Fatalf("TraceIDFrom allocates %v per op", n)
	}
	// The fetch every traced request makes: a context carrying a trace.
	tctx := ContextWithTrace(ctx, tr.Start(TraceID{Hi: 3, Lo: 4}, "classify", "m", "t"))
	if n := testing.AllocsPerRun(1000, func() { _ = TraceIDFrom(tctx) }); n != 0 {
		t.Fatalf("TraceIDFrom on a traced context allocates %v per op", n)
	}
	var nilActive *Active
	if n := testing.AllocsPerRun(1000, func() { nilActive.AddSpan("edges", 0, 1) }); n != 0 {
		t.Fatalf("nil AddSpan allocates %v per op", n)
	}
	// Full start/finish cycle of an unretained (cold-sampled) trace:
	// pooled Active, no publish.
	if n := testing.AllocsPerRun(1000, func() {
		a := tr.Start(TraceID{Hi: 1, Lo: 2}, "classify", "m", "t")
		a.AddSpan("classifier", 0, 50)
		tr.Finish(a, time.Microsecond, 200, "")
	}); n != 0 {
		t.Fatalf("cold-sampled trace cycle allocates %v per op", n)
	}
}
