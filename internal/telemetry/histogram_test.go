package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hypermine/internal/testutil"
)

func TestHistogramObserveBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(50 * time.Nanosecond)  // bucket 0 (<=100ns)
	h.Observe(100 * time.Nanosecond) // bucket 0 (inclusive bound)
	h.Observe(101 * time.Nanosecond) // bucket 1
	h.Observe(time.Millisecond)      // mid ladder
	h.Observe(time.Minute)           // +Inf overflow
	h.Observe(-5 * time.Nanosecond)  // clamps to 0, bucket 0
	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	if snap.Cumulative[0] != 3 {
		t.Fatalf("bucket0 cumulative = %d, want 3", snap.Cumulative[0])
	}
	if snap.Cumulative[1] != 4 {
		t.Fatalf("bucket1 cumulative = %d, want 4", snap.Cumulative[1])
	}
	if snap.Cumulative[NumBuckets] != snap.Count {
		t.Fatalf("+Inf bucket %d != count %d", snap.Cumulative[NumBuckets], snap.Count)
	}
	wantSum := int64(50 + 100 + 101 + time.Millisecond + time.Minute)
	if snap.SumNs != wantSum {
		t.Fatalf("sum = %d, want %d", snap.SumNs, wantSum)
	}
	// Cumulative counts must be monotone.
	for i := 1; i <= NumBuckets; i++ {
		if snap.Cumulative[i] < snap.Cumulative[i-1] {
			t.Fatalf("cumulative not monotone at %d: %d < %d", i, snap.Cumulative[i], snap.Cumulative[i-1])
		}
	}
}

func TestHistogramLadderMonotone(t *testing.T) {
	for i := 1; i < NumBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("ladder not strictly increasing at %d", i)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(seed*i) * time.Nanosecond)
			}
		}(w + 1)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestHistogramObserveNoAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts differ under race instrumentation")
	}
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Microsecond) }); n != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", n)
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_queries_total", "queries", "total queries")
	c.Add(7)
	h := r.Histogram("t_latency_seconds", "request latency", `kind="rules"`)
	h.Observe(time.Microsecond)
	h.Observe(time.Second)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE t_queries_total counter",
		"t_queries_total 7",
		"# TYPE t_latency_seconds histogram",
		`t_latency_seconds_bucket{kind="rules",le="+Inf"} 2`,
		`t_latency_seconds_count{kind="rules"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Two scrapes of unchanged state must be byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Fatal("exposition is not deterministic")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "dup", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "dup2", "y")
}

func TestRegistryCounterValuesParity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "a", "x")
	b := r.Counter("b_total", "b", "y")
	a.Add(3)
	b.Inc()
	vals := r.CounterValues()
	if vals["a"] != 3 || vals["b"] != 1 {
		t.Fatalf("CounterValues = %v", vals)
	}
	if len(vals) != len(r.Counters()) {
		t.Fatalf("parity mismatch: %d json keys vs %d counters", len(vals), len(r.Counters()))
	}
}
