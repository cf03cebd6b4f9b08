package runopt

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// PhaseLog attributes a request's wall time to pipeline phases. A
// transport that wants attribution (the server's slow-query log)
// attaches one to the request context under PhaseLogKey; the engine's
// build sites wrap their work in Span calls keyed by the Phase
// vocabulary above. A request that only hit memoized artifacts
// records no spans — it did no phase work — so the log shows exactly
// where a slow request actually spent its time.
//
// A nil *PhaseLog is a valid no-op receiver, so instrumentation sites
// need no guards: PhaseLogFrom(ctx).Span(PhaseRules) costs two nil
// checks when no log is attached.
type PhaseLog struct {
	mu      sync.Mutex
	spans   map[Phase]time.Duration
	records []PhaseRecord // ordered spans, only when KeepRecords was called
	maxRec  int
	dropped int
}

// PhaseRecord is one ordered span occurrence: which phase ran, when it
// started, and how long it took. Unlike the aggregate Snapshot, records
// preserve repetition and ordering, which is what a trace needs.
type PhaseRecord struct {
	Phase    Phase
	Start    time.Time
	Duration time.Duration
}

// PhaseLogKey is the context key a PhaseLog travels under. The server
// answers it from its pooled per-request record, which is itself the
// request's context while the engine runs, so attaching a log costs
// no value context per request.
type PhaseLogKey struct{}

// NewPhaseLog returns an empty PhaseLog not yet attached to a context.
// Pool-friendly via Reset.
func NewPhaseLog() *PhaseLog {
	return &PhaseLog{spans: make(map[Phase]time.Duration)}
}

// KeepRecords enables ordered span retention with the given bound;
// spans beyond it are dropped (counted, not stored). Call before use.
func (p *PhaseLog) KeepRecords(max int) {
	p.maxRec = max
	if cap(p.records) < max {
		p.records = make([]PhaseRecord, 0, max)
	}
}

// Reset clears all recorded state (keeping allocated capacity) so a
// pooled PhaseLog can be reused across requests.
func (p *PhaseLog) Reset() {
	p.mu.Lock()
	clear(p.spans)
	p.records = p.records[:0]
	p.dropped = 0
	p.mu.Unlock()
}

// PhaseLogFrom returns the PhaseLog attached to ctx, or nil.
func PhaseLogFrom(ctx context.Context) *PhaseLog {
	p, _ := ctx.Value(PhaseLogKey{}).(*PhaseLog)
	return p
}

// Span starts timing one phase and returns the closer; use as
//
//	defer runopt.PhaseLogFrom(ctx).Span(runopt.PhaseRules)()
//
// Durations accumulate: a request that mines rules twice records the
// sum. Nil-safe.
func (p *PhaseLog) Span(ph Phase) func() {
	if p == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		p.mu.Lock()
		p.spans[ph] += d
		if p.maxRec > 0 {
			if len(p.records) < p.maxRec {
				p.records = append(p.records, PhaseRecord{Phase: ph, Start: start, Duration: d})
			} else {
				p.dropped++
			}
		}
		p.mu.Unlock()
	}
}

// Records returns a copy of the ordered span records (empty unless
// KeepRecords was enabled) and the number dropped past the bound.
func (p *PhaseLog) Records() ([]PhaseRecord, int) {
	if p == nil {
		return nil, 0
	}
	p.mu.Lock()
	out := make([]PhaseRecord, len(p.records))
	copy(out, p.records)
	n := p.dropped
	p.mu.Unlock()
	return out, n
}

// VisitRecords calls fn for each ordered span record under the lock,
// allocation-free; fn must not re-enter the PhaseLog.
func (p *PhaseLog) VisitRecords(fn func(PhaseRecord)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for _, r := range p.records {
		fn(r)
	}
	p.mu.Unlock()
}

// PhaseSpan is one attributed phase duration.
type PhaseSpan struct {
	Phase    Phase
	Duration time.Duration
}

// Snapshot returns the recorded spans, longest first (ties broken by
// phase name) — a deterministic order safe to render.
func (p *PhaseLog) Snapshot() []PhaseSpan {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]PhaseSpan, 0, len(p.spans))
	for ph, d := range p.spans {
		out = append(out, PhaseSpan{Phase: ph, Duration: d})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// String renders the snapshot as "phase=dur phase=dur", or "none"
// when no phase work was recorded (a fully warm request).
func (p *PhaseLog) String() string {
	spans := p.Snapshot()
	if len(spans) == 0 {
		return "none"
	}
	parts := make([]string, len(spans))
	for i, s := range spans {
		parts[i] = fmt.Sprintf("%s=%s", s.Phase, s.Duration.Round(time.Microsecond))
	}
	return strings.Join(parts, " ")
}
