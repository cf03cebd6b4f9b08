package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MaxTraceSpans bounds the spans retained per trace; later spans are
// dropped (and counted in the record) rather than allocated.
const MaxTraceSpans = 32

// TraceID is a 128-bit W3C-compatible trace identifier.
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the invalid all-zero ID.
//
//hyper:noalloc
func (id TraceID) IsZero() bool { return id.Hi|id.Lo == 0 }

const hexDigits = "0123456789abcdef"

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var buf [32]byte
	return string(id.AppendHex(buf[:0]))
}

// AppendHex appends the 32 lowercase hex digits String renders to dst.
func (id TraceID) AppendHex(dst []byte) []byte {
	var buf [32]byte
	putHex64(buf[:16], id.Hi)
	putHex64(buf[16:], id.Lo)
	return append(dst, buf[:]...)
}

// MarshalJSON renders the ID as a hex string, matching the
// /debug/traces wire format.
func (id TraceID) MarshalJSON() ([]byte, error) {
	var buf [34]byte
	buf[0] = '"'
	putHex64(buf[1:17], id.Hi)
	putHex64(buf[17:33], id.Lo)
	buf[33] = '"'
	return buf[:], nil
}

// UnmarshalJSON parses the hex-string wire format back, so clients of
// /debug/traces (tests, operators' tooling) can decode traces with the
// same type the server encodes.
func (id *TraceID) UnmarshalJSON(data []byte) error {
	if len(data) != 34 || data[0] != '"' || data[33] != '"' {
		return fmt.Errorf("telemetry: trace ID %q is not 32 hex digits", data)
	}
	hi, ok1 := parseHex(string(data[1:17]))
	lo, ok2 := parseHex(string(data[17:33]))
	if !ok1 || !ok2 {
		return fmt.Errorf("telemetry: trace ID %q is not 32 hex digits", data)
	}
	id.Hi, id.Lo = hi, lo
	return nil
}

func putHex64(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// Traceparent renders a W3C traceparent header (version 00, sampled
// flag set) carrying id and a span ID derived from it.
func Traceparent(id TraceID) string {
	var buf [55]byte
	copy(buf[:3], "00-")
	putHex64(buf[3:19], id.Hi)
	putHex64(buf[19:35], id.Lo)
	buf[35] = '-'
	span := splitmix64(id.Lo ^ id.Hi)
	if span == 0 {
		span = 1 // all-zero parent span IDs are invalid per W3C
	}
	putHex64(buf[36:52], span)
	copy(buf[52:], "-01")
	return string(buf[:])
}

// ParseTraceparent extracts the trace ID from a W3C traceparent header
// (version-format `vv-traceid-spanid-flags`, lowercase hex). It
// returns false for malformed headers, unknown version ff, or the
// invalid all-zero trace ID. Version 00 is exactly 55 bytes; a later
// version may append fields after a '-' at offset 55 (W3C Trace
// Context §3.2.4), and its trace ID is still honoured.
func ParseTraceparent(h string) (TraceID, bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, false
	}
	ver, ok := parseHex(h[:2])
	if !ok || ver == 0xff || (len(h) > 55 && (ver == 0 || h[55] != '-')) {
		return TraceID{}, false
	}
	h = h[:55]
	hi, ok1 := parseHex(h[3:19])
	lo, ok2 := parseHex(h[19:35])
	span, ok3 := parseHex(h[36:52])
	_, ok4 := parseHex(h[53:55])
	if !ok1 || !ok2 || !ok3 || !ok4 || span == 0 {
		return TraceID{}, false
	}
	id := TraceID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// parseHex decodes up to 16 lowercase hex digits.
func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// SpanRecord is one retained span: a named phase with its offset from
// the trace start and its duration.
type SpanRecord struct {
	Phase      string `json:"phase"`
	StartNs    int64  `json:"start_ns"`
	DurationNs int64  `json:"duration_ns"`
}

// Trace is an immutable published trace record as served by
// /debug/traces.
type Trace struct {
	ID       TraceID       `json:"trace_id"`
	Seq      uint64        `json:"seq"`
	Kind     string        `json:"kind"`
	Model    string        `json:"model,omitempty"`
	Tenant   string        `json:"tenant,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Status   int           `json:"status"`
	Err      string        `json:"error,omitempty"`
	Reason   string        `json:"retained"` // "slow" | "error" | "pinned" | "sampled"
	Dropped  int           `json:"spans_dropped,omitempty"`
	Spans    []SpanRecord  `json:"spans"`
}

// ring is a bounded lock-free trace ring: slots hold immutable
// published records behind atomic pointers, writers claim slots by a
// monotone head counter, readers snapshot by loading pointers. Old
// records are overwritten (and garbage-collected) as the head wraps.
type ring struct {
	slots []atomic.Pointer[Trace]
	head  atomic.Uint64
}

func newRing(n int) *ring {
	return &ring{slots: make([]atomic.Pointer[Trace], n)}
}

func (r *ring) publish(t *Trace) {
	i := r.head.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot returns the retained records, newest first.
func (r *ring) snapshot() []*Trace {
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	// Insertion sort by descending Seq: rings are small (tens).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq > out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TracerConfig tunes retention and sampling. Zero values select the
// defaults noted on each field.
type TracerConfig struct {
	// Ring is the recent-trace ring size (sampled OK requests).
	// Default 128.
	Ring int
	// SlowRing is the always-retain ring size for slow, errored, shed,
	// and pinned traces. Default 64.
	SlowRing int
	// SampleEvery publishes one in N unremarkable traces to the recent
	// ring; 1 retains every trace, negative disables sampling (only
	// slow/errored/pinned traces are kept). Default 16.
	SampleEvery int
	// SlowThreshold marks traces at or above this duration as slow
	// (always retained). Default 100ms; negative disables.
	SlowThreshold time.Duration
	// Now is the clock, for tests. Default time.Now.
	Now func() time.Time
}

// Tracer mints trace IDs, pools in-flight trace state, and retains
// finished traces in two bounded lock-free rings: a sampled ring of
// recent requests and an always-retain ring for slow, errored, and
// pinned ones. The per-request cost when a trace is not retained
// ("cold-sampled") is allocation-free.
type Tracer struct {
	cfg    TracerConfig
	recent *ring
	slow   *ring
	seq    atomic.Uint64 // publish order stamp
	tick   atomic.Uint64 // sampling stride counter
	ids    atomic.Uint64 // splitmix64 stream state
	pool   sync.Pool
}

// NewTracer builds a tracer; see TracerConfig for defaults.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 128
	}
	if cfg.SlowRing <= 0 {
		cfg.SlowRing = 64
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 16
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = 100 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	t := &Tracer{cfg: cfg, recent: newRing(cfg.Ring), slow: newRing(cfg.SlowRing)}
	t.ids.Store(uint64(time.Now().UnixNano()))
	t.pool.New = func() any { return new(Active) }
	return t
}

// SlowThreshold returns the configured slow-trace threshold.
func (t *Tracer) SlowThreshold() time.Duration { return t.cfg.SlowThreshold }

// MintID returns a fresh nonzero trace ID from a splitmix64 stream.
func (t *Tracer) MintID() TraceID {
	for {
		s := t.ids.Add(2)
		id := TraceID{Hi: splitmix64(s - 1), Lo: splitmix64(s)}
		if !id.IsZero() {
			return id
		}
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Active is the in-flight state of one trace, owned by the request
// goroutine between Start and Finish. It is pooled: do not retain it
// after Finish.
type Active struct {
	t       *Tracer
	id      TraceID
	kind    string
	model   string
	tenant  string
	nspans  int
	dropped int
	pinned  atomic.Bool
	spans   [MaxTraceSpans]SpanRecord
}

// Start begins a trace. A zero id mints a fresh one (pass the parsed
// inbound traceparent ID to continue a distributed trace). Start reads
// no clock: most traces are dropped at Finish, so only a retained one
// pays for a wall-clock read there.
func (t *Tracer) Start(id TraceID, kind, model, tenant string) *Active {
	if id.IsZero() {
		id = t.MintID()
	}
	a := t.pool.Get().(*Active)
	a.t = t
	a.id = id
	a.kind = kind
	a.model = model
	a.tenant = tenant
	return a
}

// TraceID returns the trace ID; zero on a nil Active.
//
//hyper:noalloc
func (a *Active) TraceID() TraceID {
	if a == nil {
		return TraceID{}
	}
	return a.id
}

// AddSpan appends one span; on a nil Active it is an allocation-free
// no-op, and spans beyond MaxTraceSpans are counted as dropped.
//
//hyper:noalloc
func (a *Active) AddSpan(phase string, startNs, durationNs int64) {
	if a == nil {
		return
	}
	if a.nspans >= MaxTraceSpans {
		a.dropped++
		return
	}
	a.spans[a.nspans] = SpanRecord{Phase: phase, StartNs: startNs, DurationNs: durationNs}
	a.nspans++
}

// Pin forces retention of this trace at Finish regardless of sampling
// (used by the slow-query log so the logged trace_id is resolvable).
func (a *Active) Pin() {
	if a != nil {
		a.pinned.Store(true)
	}
}

// Finish completes the trace and decides retention: slow (>=
// threshold), errored (status >= 400 or errMsg != ""), and pinned
// traces always land in the slow ring; otherwise one in SampleEvery
// goes to the recent ring; the rest are dropped without allocating.
// A retained trace's start is the clock at Finish minus d.
// The Active is recycled — the caller must not touch it afterwards.
func (t *Tracer) Finish(a *Active, d time.Duration, status int, errMsg string) {
	if a == nil {
		return
	}
	slow := t.cfg.SlowThreshold > 0 && d >= t.cfg.SlowThreshold
	errored := status >= 400 || errMsg != ""
	pinned := a.pinned.Load()
	retain := slow || errored || pinned
	sampled := false
	if !retain && t.cfg.SampleEvery > 0 {
		sampled = t.tick.Add(1)%uint64(t.cfg.SampleEvery) == 0
	}
	if retain || sampled {
		reason := "sampled"
		switch {
		case slow:
			reason = "slow"
		case errored:
			reason = "error"
		case pinned:
			reason = "pinned"
		}
		rec := &Trace{
			ID:       a.id,
			Seq:      t.seq.Add(1),
			Kind:     a.kind,
			Model:    a.model,
			Tenant:   a.tenant,
			Start:    t.cfg.Now().Add(-d),
			Duration: d,
			Status:   status,
			Err:      errMsg,
			Reason:   reason,
			Dropped:  a.dropped,
			Spans:    append([]SpanRecord(nil), a.spans[:a.nspans]...),
		}
		if retain {
			t.slow.publish(rec)
		} else {
			t.recent.publish(rec)
		}
	}
	a.reset()
	t.pool.Put(a)
}

func (a *Active) reset() {
	a.t = nil
	a.id = TraceID{}
	a.kind, a.model, a.tenant = "", "", ""
	a.nspans = 0
	a.dropped = 0
	a.pinned.Store(false)
}

// Snapshot returns the retained traces, newest first: the always-kept
// slow/errored/pinned ring and the sampled recent ring.
func (t *Tracer) Snapshot() (slow, recent []*Trace) {
	return t.slow.snapshot(), t.recent.snapshot()
}

// TraceKey is the context key the in-flight trace travels under. A
// transport whose pooled per-request state is itself a context
// answers it directly, instead of layering one value context per
// request with ContextWithTrace.
type TraceKey struct{}

// ContextWithTrace attaches the in-flight trace to the context.
func ContextWithTrace(ctx context.Context, a *Active) context.Context {
	return context.WithValue(ctx, TraceKey{}, a)
}

// TraceFrom returns the in-flight trace attached to ctx, or nil.
//
//hyper:noalloc
func TraceFrom(ctx context.Context) *Active {
	// TraceKey{} is zero-size: interface conversion points at
	// runtime.zerobase and performs no heap allocation (pinned by the
	// cold-path alloc test).
	//hyperlint:ignore noalloc
	a, _ := ctx.Value(TraceKey{}).(*Active)
	return a
}

// TraceIDFrom returns the trace ID attached to ctx, or the zero ID.
//
//hyper:noalloc
func TraceIDFrom(ctx context.Context) TraceID {
	return TraceFrom(ctx).TraceID()
}
