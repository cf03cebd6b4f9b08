package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary, recorded by the
// benchmark's own wrappers around the program's public surface. Spans
// of one request share a trace id; the id crosses HTTP hops in the W3C
// traceparent header, which the router forwards. Spans a request
// causes without carrying its id (a node's replication push) have
// trace 0 and are attributed by time containment.
type span struct {
	Trace uint64 `json:"trace"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// maxSpans bounds the in-memory span log; later spans are dropped (the
// count of drops is written with the file).
const maxSpans = 200_000

// spanLog records spans in memory while on and writes them out at the
// end. When off, every wrapper is a pass-through.
type spanLog struct {
	on      atomic.Bool
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// nextTrace mints a trace id (never 0).
func (l *spanLog) nextTrace() uint64 { return l.ids.Add(1) }

func (l *spanLog) record(trace uint64, layer string, start, end int64) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{Trace: trace, Layer: layer, Start: start, End: end})
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores the span log as JSON at path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"dropped": l.dropped, "spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func traceparent(id uint64) string {
	return fmt.Sprintf("00-%032x-%016x-01", id, id)
}

// traceOf extracts the trace id a traceparent header carries (0 when
// absent or not one of ours).
func traceOf(h string) uint64 {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return 0
	}
	id, err := strconv.ParseUint(parts[1][16:], 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// wrap records a span of the given layer around every request h serves.
func (l *spanLog) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := l.now()
		h.ServeHTTP(w, r)
		l.record(traceOf(r.Header.Get("traceparent")), layer, start, l.now())
	})
}

// transport records a span per round trip on the client the fleet is
// given, named by what the fleet used it for.
type transport struct {
	log  *spanLog
	base http.RoundTripper
	// replBytes sums the request bodies of replication pushes.
	replBytes atomic.Int64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.log.on.Load() {
		return t.base.RoundTrip(req)
	}
	layer := fleetLayer(req)
	if layer == layerReplicate && req.ContentLength > 0 {
		t.replBytes.Add(req.ContentLength)
	}
	start := t.log.now()
	resp, err := t.base.RoundTrip(req)
	t.log.record(traceOf(req.Header.Get("traceparent")), layer, start, t.log.now())
	return resp, err
}

// Span layers.
const (
	layerClient    = "client"          // the benchmark's own request, due time excluded
	layerHandler   = "server.handler"  // the served http.Handler
	layerForward   = "fleet.forward"   // router -> owner round trip
	layerReplicate = "fleet.replicate" // owner -> replica snapshot push
	layerGossip    = "fleet.gossip"    // one gossip exchange
	layerFleetMisc = "fleet.other"     // snapshot pulls and readiness probes
)

func fleetLayer(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/fleet/replicate/"):
		return layerReplicate
	case p == "/fleet/gossip":
		return layerGossip
	case strings.HasPrefix(p, "/v1/models/"):
		return layerForward
	}
	return layerFleetMisc
}

// byLayer groups spans by layer.
func byLayer(spans []span) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		out[s.Layer] = append(out[s.Layer], s)
	}
	return out
}

// selfTimes returns, for each parent span, its duration minus the
// durations of the child spans that carry its trace id (the layer's
// self time), in ns.
func selfTimes(parents, children []span) []float64 {
	kids := map[uint64]float64{}
	for _, c := range children {
		if c.Trace != 0 {
			kids[c.Trace] += c.dur()
		}
	}
	out := make([]float64, 0, len(parents))
	for _, p := range parents {
		if c, ok := kids[p.Trace]; ok {
			out = append(out, p.dur()-c)
		}
	}
	return out
}

// containedTime returns, for each parent span, the summed duration of
// the candidate spans lying inside its interval, in ns. It attributes
// spans that carry no trace id (a replication push) to the request
// that caused them; this is exact when parents do not overlap, as the
// single fleet-churn writer guarantees.
func containedTime(parents, cands []span) []float64 {
	out := make([]float64, len(parents))
	for i, p := range parents {
		for _, c := range cands {
			if c.Start >= p.Start && c.End <= p.End {
				out[i] += c.dur()
			}
		}
	}
	return out
}
