// Package server implements the hypermined HTTP/JSON query API over a
// registry of served models. Every query handler is a thin transport
// shim over the prepared-model engine: decode the request into a typed
// engine.Request, run it through Engine.Do, encode the variant's
// payload. HTTP clients and in-process Go callers therefore execute
// identical query code, and the multiplexed :query endpoint serves
// mixed batches (rules + similarity + classification) in one round
// trip.
//
// Endpoints:
//
//	GET    /healthz                          liveness (process is up)
//	GET    /readyz                           readiness (node can serve correctly now)
//	GET    /stats                            process + registry + engine counters
//	GET    /v1/models                        list resident models
//	GET    /v1/models/{name}                 model detail (schema, dominator, targets)
//	PUT    /v1/models/{name}                 upload a binary snapshot (load or hot-swap)
//	DELETE /v1/models/{name}                 unload
//	GET    /v1/models/{name}/rules           mva-type rules for a head attribute
//	GET    /v1/models/{name}/similar         pair similarity or top-N ranking
//	GET    /v1/models/{name}/dominators      the serving dominator
//	POST   /v1/models/{name}/classify        classify one observation
//	POST   /v1/models/{name}/classify:batch  classify many observations
//	POST   /v1/models/{name}:query           typed engine.Request (incl. mixed batches)
//	POST   /v1/models/{name}:append          append rows, delta-update, republish
//
// Every model-scoped response that answers for a specific published
// model carries an X-Model-Generation header naming the registry
// generation that produced it, so clients interleaving queries with
// :append can attribute each answer to exactly one generation.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/registry"
	"hypermine/internal/runopt"
	"hypermine/internal/telemetry"
)

// maxSnapshotBytes bounds a PUT body (1 GiB — far beyond any model
// this system mines, but finite).
const maxSnapshotBytes = 1 << 30

// maxQueryBytes bounds a :query or classify body: even a large mixed
// batch of typed requests is far under a megabyte.
const maxQueryBytes = 8 << 20

// StatusClientClosedRequest is the nginx 499 convention: the client
// went away before the handler finished, so the in-flight work was
// abandoned. The status never reaches that client — it exists so
// logs, metrics, and tests can tell "client hung up" (not our fault)
// from 504 "server-side query deadline expired" and from 5xx real
// faults.
const StatusClientClosedRequest = 499

// Server is the query API over a model registry. Handlers run under
// the request context: a client disconnect or an expired query
// deadline aborts rule mining, lazy artifact builds, and batch
// classification mid-flight instead of burning CPU on an answer
// nobody will read.
type Server struct {
	reg          *registry.Registry
	mux          *http.ServeMux
	start        time.Time
	queryTimeout time.Duration
	admission    *admit.Controller
	pprofOn      bool
	slowQuery    time.Duration
	logger       *slog.Logger
	tracer       *telemetry.Tracer

	// tel is the shared counter/histogram registry: /stats and
	// /metrics are both generated from it, so the two surfaces cannot
	// drift. The named fields below are the same counters, kept as
	// direct pointers so hot paths skip any lookup.
	tel      *telemetry.Registry
	queries  *telemetry.Counter
	errs     *telemetry.Counter
	timeouts *telemetry.Counter
	canceled *telemetry.Counter
	shed     *telemetry.Counter

	reqHist    [len(queryKinds)][numClasses]*telemetry.Histogram
	queueHist  [numClasses]*telemetry.Histogram
	phaseHist  map[runopt.Phase]*telemetry.Histogram
	snapHist   *telemetry.Histogram
	appendHist *telemetry.Histogram

	obsPool sync.Pool // *reqObs
	pools   wirePools

	// readyFn backs GET /readyz (nil = always ready); extraStats and
	// extraMetrics are embedder extension points merged into /stats and
	// /metrics. All three are installed by embedders (the fleet node)
	// between New and serving traffic, via atomics so a scrape racing
	// installation stays defined.
	readyFn      atomic.Pointer[func() error]
	extraStats   atomic.Pointer[[]statsSection]
	extraMetrics atomic.Pointer[[]func(w io.Writer)]
}

// statsSection is one embedder-registered /stats key.
type statsSection struct {
	key string
	fn  func() any
}

// numClasses mirrors the admission cost-class count (cheap, expensive).
const numClasses = 2

// queryKinds is the request-variant vocabulary of the query funnel,
// used to label the per-kind latency histograms. "other" catches
// malformed requests that name no variant.
var queryKinds = [...]string{"rules", "similar", "dominators", "classify", "batch", "other"}

// kindIndex maps a request to its queryKinds slot.
func kindIndex(req *engine.Request) int {
	switch {
	case req == nil:
		return len(queryKinds) - 1
	case req.Rules != nil:
		return 0
	case req.Similar != nil:
		return 1
	case req.Dominators != nil:
		return 2
	case req.Classify != nil:
		return 3
	case req.Batch != nil:
		return 4
	}
	return len(queryKinds) - 1
}

// Option configures a Server.
type Option func(*Server)

// WithQueryTimeout bounds every *query* request's handling time: the
// request context gets a deadline of d, and a query that exceeds it
// is abandoned with 504 Gateway Timeout. d <= 0 means no bound.
// Admin operations (PUT snapshot upload/hot-swap, DELETE unload) are
// exempt — a timeout sized for microsecond classify queries must not
// make loading a non-trivial model permanently impossible; uploads
// are still aborted when the client itself goes away.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// WithAdmission puts an admission controller in front of every query
// and :append: each is checked against the per-model circuit breaker,
// the per-tenant (X-Tenant header) and per-model token buckets, and the
// cost-class concurrency gate (queries by cost, appends expensive)
// before it does any work. Shed requests get 429/503 with a
// Retry-After header; admitted requests feed their outcome back to the
// breaker. Metadata endpoints (model list/detail) and admin writes
// (PUT, DELETE) are exempt.
// nil disables admission (the default).
func WithAdmission(c *admit.Controller) Option {
	return func(s *Server) { s.admission = c }
}

// WithPprof mounts net/http/pprof under GET /debug/pprof/ when
// enabled. Off by default: profiling endpoints leak operational detail
// and cost CPU, so they are opt-in (hypermined -pprof).
func WithPprof(enabled bool) Option {
	return func(s *Server) { s.pprofOn = enabled }
}

// WithSlowQueryLog logs every model-scoped request (queries, :append,
// PUT, DELETE) whose handling exceeds threshold as a structured slog
// event carrying trace_id, kind (request variant, or append, load,
// unload), model, tenant, total duration, and per-phase attribution
// from the engine's build sites (phases=none means the time went to
// warm reads, not artifact builds). When tracing is enabled the event
// also pins its trace in the retention ring, so the logged trace_id is
// resolvable at /debug/traces. threshold <= 0 disables the log; the
// destination is the server logger (WithLogger).
func WithSlowQueryLog(threshold time.Duration) Option {
	return func(s *Server) { s.slowQuery = threshold }
}

// WithLogger sets the structured logger for every server-emitted log
// line (slow queries, snapshot loads/unloads). Default slog.Default().
func WithLogger(logger *slog.Logger) Option {
	return func(s *Server) {
		if logger != nil {
			s.logger = logger
		}
	}
}

// WithTracer enables request tracing: every model-scoped request
// (queries, :append, PUT, DELETE) gets a trace ID (minted, or adopted
// from an inbound W3C traceparent header), echoed as X-Trace-Id; the
// engine's phase spans land in the trace; slow, errored, shed, and
// pinned traces are always retained in the tracer's ring and served at
// GET /debug/traces (mounted only when tracing is on, like pprof). nil
// disables tracing (the default): no trace IDs, no /debug/traces. The
// phase histograms and the slow-query log read the same spans with
// tracing on or off.
func WithTracer(t *telemetry.Tracer) Option {
	return func(s *Server) { s.tracer = t }
}

// New returns a Server over the registry.
func New(reg *registry.Registry, opts ...Option) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now(), logger: slog.Default()}
	for _, o := range opts {
		o(s)
	}
	s.initTelemetry()
	s.pools.init()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.tracer != nil {
		s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	}
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.pprofOn {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleGetModel)
	s.mux.HandleFunc("PUT /v1/models/{name}", s.handlePutModel)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleDeleteModel)
	s.mux.HandleFunc("GET /v1/models/{name}/rules", s.handleRules)
	s.mux.HandleFunc("GET /v1/models/{name}/similar", s.handleSimilar)
	s.mux.HandleFunc("GET /v1/models/{name}/dominators", s.handleDominators)
	s.mux.HandleFunc("POST /v1/models/{name}/classify", func(w http.ResponseWriter, r *http.Request) {
		s.handleClassify(w, r, false)
	})
	s.mux.HandleFunc("POST /v1/models/{name}/classify:batch", func(w http.ResponseWriter, r *http.Request) {
		s.handleClassify(w, r, true)
	})
	// ":query" and ":append" are not path segments of their own, so
	// the ServeMux wildcard grammar cannot name them directly; a
	// catch-all picks up "{name}:query" / "{name}:append" and rejects
	// everything else. The literal patterns above are more specific
	// and keep winning.
	s.mux.HandleFunc("POST /v1/models/{rest...}", s.handleQuery)
	return s
}

// initTelemetry builds the shared counter/histogram registry. Every
// counter carries both its Prometheus family name and its /stats JSON
// key, and both endpoints iterate the same registration — that is the
// anti-drift contract the parity test pins.
func (s *Server) initTelemetry() {
	s.tel = telemetry.NewRegistry()
	s.queries = s.tel.Counter("hypermined_queries_total", "queries",
		"Queries accepted by the API, counted before admission control.")
	s.errs = s.tel.Counter("hypermined_errors_total", "errors",
		"Requests that failed with a client or server error.")
	s.timeouts = s.tel.Counter("hypermined_timeouts_total", "timeouts",
		"Queries abandoned at the server-side deadline (504).")
	s.canceled = s.tel.Counter("hypermined_canceled_total", "canceled",
		"Queries abandoned because the client went away (499).")
	s.shed = s.tel.Counter("hypermined_shed_total", "shed",
		"Requests rejected by admission control (429 and 503).")

	classes := [numClasses]admit.Class{admit.Cheap, admit.Expensive}
	for ki, kind := range queryKinds {
		for ci, class := range classes {
			s.reqHist[ki][ci] = s.tel.Histogram("hypermined_request_seconds",
				"Query latency (admission wait + engine), per request kind and cost class; every request is observed, whatever its outcome.",
				`kind="`+kind+`",class="`+class.String()+`"`)
		}
	}
	for ci, class := range classes {
		s.queueHist[ci] = s.tel.Histogram("hypermined_queue_wait_seconds",
			"Time admitted queries spent waiting in a concurrency-gate queue (only real waits are observed).",
			`class="`+class.String()+`"`)
	}
	s.phaseHist = make(map[runopt.Phase]*telemetry.Histogram)
	for _, ph := range []runopt.Phase{
		runopt.PhaseEdges, runopt.PhasePairs, runopt.PhaseTriples,
		runopt.PhaseSimilarity, runopt.PhaseDominator, runopt.PhaseApriori,
		runopt.PhaseRules, runopt.PhaseFolds, runopt.PhaseIndex, runopt.PhaseClassifier,
	} {
		s.phaseHist[ph] = s.tel.Histogram("hypermined_phase_seconds",
			"Time spent in engine pipeline phases (artifact builds and rule mining), per phase.",
			`phase="`+string(ph)+`"`)
	}
	s.snapHist = s.tel.Histogram("hypermined_snapshot_load_seconds",
		"Wall time of a PUT snapshot (read + engine wrap + warmup + swap); every request is observed, whatever its outcome.", "")
	s.appendHist = s.tel.Histogram("hypermined_append_seconds",
		"Wall time of an :append (parse + delta + rewarm + swap); every request is observed, whatever its outcome.", "")

	if s.admission != nil {
		s.admission.ObserveQueueWait(func(class admit.Class, d time.Duration) {
			if int(class) < numClasses {
				s.queueHist[class].Observe(d)
			}
		})
	}
	s.obsPool.New = func() any { return new(reqObs) }
}

// Telemetry exposes the shared counter/histogram registry (tests use
// it to verify /stats–/metrics parity; embedders may add to it before
// serving traffic).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// Handler returns the HTTP handler. When a query timeout is
// configured, every query request's context carries that deadline;
// admin writes (PUT/DELETE) run unbounded (see WithQueryTimeout).
func (s *Server) Handler() http.Handler {
	if s.queryTimeout <= 0 {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Long-running diagnostics (/debug/pprof/profile?seconds=30)
		// must not be clipped by a deadline sized for queries.
		if r.Method == http.MethodPut || r.Method == http.MethodDelete ||
			strings.HasPrefix(r.URL.Path, "/debug/") {
			s.mux.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.queryTimeout)
		defer cancel()
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
}

// fail writes an error answer, counts it as an error, and returns its
// message.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) string {
	msg := fmt.Sprintf(format, args...)
	s.errs.Inc()
	writeJSON(w, code, errorBody{Error: msg})
	return msg
}

// failCtx answers a context-shaped failure with its distinct status —
// 504 for an expired server-side query deadline, 499 for a client
// that went away — and returns that status, or 0 when err (nil
// included) is not context-shaped. Neither case counts as a server
// error: they land in the timeouts / canceled counters instead of
// errs. Handlers fall through to their own status when it returns 0.
func (s *Server) failCtx(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "query deadline exceeded"})
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		s.canceled.Inc()
		writeJSON(w, StatusClientClosedRequest, errorBody{Error: "request canceled by client"})
		return StatusClientClosedRequest
	}
	return 0
}

// engineStatus maps an Engine.Do error that is not context-shaped to
// its HTTP status: typed engine errors map by kind (bad_request ->
// 400, unavailable -> 409), anything else is a 500.
func engineStatus(err error) int {
	var ee *engine.Error
	if errors.As(err, &ee) {
		switch ee.Kind {
		case engine.ErrBadRequest:
			return http.StatusBadRequest
		case engine.ErrUnavailable:
			return http.StatusConflict
		}
	}
	return http.StatusInternalServerError
}

// failEngine answers an Engine.Do error: context outcomes keep their
// 504/499, every other error gets engineStatus and the typed error's
// message. It returns the status and message it wrote.
func (s *Server) failEngine(w http.ResponseWriter, err error) (int, string) {
	if code := s.failCtx(w, err); code != 0 {
		return code, err.Error()
	}
	msg := err.Error()
	var ee *engine.Error
	if errors.As(err, &ee) {
		msg = ee.Message
	}
	code := engineStatus(err)
	return code, s.fail(w, code, "%s", msg)
}

// acquire resolves the record's model for a read, stamping the trace
// ID and the serving generation on the response and counting the
// query; nil means the model is unknown and the 404 is written and
// recorded. The caller releases the model.
func (s *Server) acquire(w http.ResponseWriter, ob *reqObs) *registry.Served {
	sv := s.reg.Acquire(ob.name)
	if sv == nil {
		stamp(w.Header(), ob.act.TraceID(), nil)
		ob.fail(w, http.StatusNotFound, "unknown model %q", ob.name)
		return nil
	}
	// The answer comes from exactly this generation's engine — stamp
	// it so clients racing an :append can attribute the response.
	stamp(w.Header(), ob.act.TraceID(), sv)
	s.queries.Inc()
	sv.CountQuery()
	return sv
}

// reqObs is the pooled record of one model-scoped request, the funnel
// every front door (queries, the model detail read, :append, PUT,
// DELETE) opens and closes through. Per door only data changes: the trace kind, the admission
// class, and the latency histogram. Everything else is one path: the
// trace, admission and the breaker's outcome, the phase spans, the
// phase histograms, the slow-query log, and the recorded status of a
// failure. finish is deferred as a method value on a pooled pointer,
// so the bookkeeping itself performs no heap allocation.
//
// The record is also the request's context: it answers the trace key
// with its span record (see Value), so the engine's build sites write
// their spans straight into it without a value context per request.
type reqObs struct {
	context.Context // the request context

	s      *Server
	name   string
	kind   string
	tenant string
	hist   *telemetry.Histogram // the door's latency histogram; nil for none
	start  time.Time
	status int
	errMsg string
	tk     admit.Ticket      // zero unless admitted; Done is then a no-op
	act    *telemetry.Active // the span record: the tracer's, or &rec
	rec    telemetry.Active  // the span record when tracing is off
}

// Value answers the trace key with the request's span record; every
// other key falls through to the request context.
//
//hyper:noalloc
func (ob *reqObs) Value(key any) any {
	if _, ok := key.(telemetry.TraceKey); ok {
		return ob.act
	}
	return ob.Context.Value(key)
}

// open starts the record of one request at its front door: a trace of
// kind (continuing an inbound traceparent) when tracing is on, the
// span record either way, and hist, observed at finish with the
// request's latency whatever its outcome. The caller defers finish.
func (s *Server) open(r *http.Request, name, kind string, hist *telemetry.Histogram) *reqObs {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = admit.DefaultTenant
	}
	ob := s.obsPool.Get().(*reqObs)
	ob.Context = r.Context()
	ob.s = s
	ob.name = name
	ob.kind = kind
	ob.tenant = tenant
	ob.hist = hist
	ob.status = http.StatusOK
	ob.act = &ob.rec
	if s.tracer != nil {
		// Looked up by its canonical key: Get("traceparent") would
		// canonicalize, and allocate, on every request.
		id, _ := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
		ob.act = s.tracer.Start(id, kind, name, tenant)
	}
	ob.start = time.Now()
	ob.act.Begin(ob.start)
	return ob
}

// admit passes the request through admission control in class. False
// means it was not admitted — shed, or its context ended while it
// waited in a gate queue — and the answer is written and recorded.
func (ob *reqObs) admit(w http.ResponseWriter, class admit.Class) bool {
	s := ob.s
	if s.admission == nil {
		return true
	}
	_, rej, err := s.admission.AdmitInto(ob.Context, &ob.tk, ob.tenant, ob.name, class)
	if err != nil {
		// The context ended while the request waited in a gate
		// queue: report it like any other context outcome.
		if !ob.failCtx(w, err) {
			ob.fail(w, http.StatusInternalServerError, "admission: %v", err)
		}
		return false
	}
	if rej != nil {
		s.shed.Inc()
		ob.status, ob.errMsg = rej.Status, "overloaded: "+string(rej.Reason)
		WriteRejection(w, rej)
		return false
	}
	return true
}

// fail answers the request with an error and records its outcome.
func (ob *reqObs) fail(w http.ResponseWriter, code int, format string, args ...any) {
	ob.status, ob.errMsg = code, ob.s.fail(w, code, format, args...)
}

// failCtx answers a context-shaped failure (see Server.failCtx) and
// records it; false when err is not one and nothing was written.
func (ob *reqObs) failCtx(w http.ResponseWriter, err error) bool {
	code := ob.s.failCtx(w, err)
	if code != 0 {
		ob.status, ob.errMsg = code, err.Error()
	}
	return code != 0
}

// finish closes the record: it settles the admission ticket from the
// recorded status, observes the door's latency histogram and the
// phase histograms, emits the slow-query log, completes the trace, and
// recycles the record.
func (ob *reqObs) finish() {
	s := ob.s
	elapsed := time.Since(ob.start)
	ob.tk.Done(outcome(ob.status))
	if ob.hist != nil {
		ob.hist.Observe(elapsed)
	}
	for _, sp := range ob.act.Spans() {
		if h := s.phaseHist[runopt.Phase(sp.Phase)]; h != nil {
			h.Observe(time.Duration(sp.DurationNs))
		}
	}
	if s.slowQuery > 0 && elapsed >= s.slowQuery {
		ob.act.Pin() // keep the logged trace resolvable
		s.logSlow(ob, elapsed)
	}
	if s.tracer != nil {
		s.tracer.Finish(ob.act, elapsed, ob.status, ob.errMsg)
	} else {
		ob.rec.Reset()
	}
	ob.Context = nil
	ob.act = nil
	ob.hist = nil
	ob.errMsg = ""
	s.obsPool.Put(ob)
}

// outcome classifies a request's status for the model's circuit
// breaker: an expired deadline (504) or a server fault (5xx) is a
// model failure; a client hanging up (499) is neutral; a client-shaped
// rejection (4xx: malformed request, unknown model, lost race) means
// the model itself worked.
func outcome(status int) admit.Outcome {
	switch {
	case status == StatusClientClosedRequest:
		return admit.OutcomeCanceled
	case status >= 500:
		return admit.OutcomeFailure
	}
	return admit.OutcomeOK
}

// do routes one typed request through the named model's engine and
// returns the response, handling 404/admission/err reporting itself
// (nil means "already written"). Every query handler calls it; the
// latency histogram is the request's kind and cost class.
func (s *Server) do(w http.ResponseWriter, r *http.Request, name string, req *engine.Request) *engine.Response {
	class := classOf(req)
	ki := kindIndex(req)
	ob := s.open(r, name, queryKinds[ki], s.reqHist[ki][class])
	defer ob.finish()

	sv := s.acquire(w, ob)
	if sv == nil {
		return nil
	}
	defer sv.Release()
	if !ob.admit(w, class) {
		return nil
	}
	resp, err := sv.Engine().Do(ob, req)
	if err != nil {
		ob.status, ob.errMsg = s.failEngine(w, err)
		return nil
	}
	return resp
}

// classOf maps the engine's static request-cost classification onto
// the admission class vocabulary.
func classOf(req *engine.Request) admit.Class {
	if req.Cost() == engine.CostExpensive {
		return admit.Expensive
	}
	return admit.Cheap
}

// retryAfterSeconds renders a Retry-After duration as whole seconds,
// rounded up with a floor of 1 (the header carries integral seconds;
// zero would invite an immediate retry storm).
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// rejectionBody is the response shape of a shed request.
type rejectionBody struct {
	Error             string `json:"error"`
	Reason            string `json:"reason"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// WriteRejection writes an admission rejection: the controller's
// chosen status (429 for rate/queue pressure, 503 for an open breaker)
// plus a Retry-After header. A serving node and the fleet router both
// answer shed requests with it, each counting the shed itself
// (shedding is the system working as designed, not an error).
func WriteRejection(w http.ResponseWriter, rej *admit.Rejection) {
	secs := retryAfterSeconds(rej.RetryAfter)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, rej.Status, rejectionBody{
		Error:             "overloaded: " + string(rej.Reason),
		Reason:            string(rej.Reason),
		RetryAfterSeconds: secs,
	})
}

// logSlow emits the structured slow-query event. phases=none means the
// request did no artifact builds — its time went to warm reads, queue
// wait, or a singleflight build another request performed. trace_id is
// the zero ID when tracing is off.
func (s *Server) logSlow(ob *reqObs, elapsed time.Duration) {
	s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
		slog.String("trace_id", ob.act.TraceID().String()),
		slog.String("kind", ob.kind),
		slog.String("model", ob.name),
		slog.String("tenant", ob.tenant),
		slog.Duration("duration", elapsed.Round(time.Microsecond)),
		slog.Int("status", ob.status),
		slog.String("phases", phaseSummary(ob.act.Spans())))
}

// phaseSummary renders spans as "phase=dur phase=dur", one entry per
// phase with its durations summed, longest first (ties by name), or
// "none" when the request did no phase work.
func phaseSummary(spans []telemetry.SpanRecord) string {
	type phaseTotal struct {
		phase string
		d     time.Duration
	}
	var totals []phaseTotal
next:
	for _, sp := range spans {
		for i := range totals {
			if totals[i].phase == sp.Phase {
				totals[i].d += time.Duration(sp.DurationNs)
				continue next
			}
		}
		totals = append(totals, phaseTotal{sp.Phase, time.Duration(sp.DurationNs)})
	}
	if len(totals) == 0 {
		return "none"
	}
	sort.Slice(totals, func(i, j int) bool {
		if totals[i].d != totals[j].d {
			return totals[i].d > totals[j].d
		}
		return totals[i].phase < totals[j].phase
	})
	parts := make([]string, len(totals))
	for i, t := range totals {
		parts[i] = t.phase + "=" + t.d.Round(time.Microsecond).String()
	}
	return strings.Join(parts, " ")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// SetReadiness installs the readiness probe behind GET /readyz: fn
// returning nil means ready, an error becomes the "reason" field of a
// 503. The fleet node installs one that waits for its first gossip
// convergence; a plain server is ready as soon as it serves (boot
// loads finish before the listener opens). Install before serving
// traffic; a probe racing installation sees the previous state.
func (s *Server) SetReadiness(fn func() error) {
	if fn == nil {
		s.readyFn.Store(nil)
		return
	}
	s.readyFn.Store(&fn)
}

// handleReadyz is the readiness half of the health split: /healthz
// answers "the process is alive" unconditionally, /readyz answers
// "this node can correctly serve traffic right now". Routers and CI
// gate on /readyz instead of sleep loops.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if fn := s.readyFn.Load(); fn != nil {
		if err := (*fn)(); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "not ready", "reason": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// RegisterStatsSection adds an embedder-computed key to the /stats
// document (e.g. the fleet node's "fleet" section). fn runs per scrape
// and must be cheap and lock-light. Registration is not idempotent;
// call once per key before serving traffic.
func (s *Server) RegisterStatsSection(key string, fn func() any) {
	for {
		old := s.extraStats.Load()
		var next []statsSection
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, statsSection{key: key, fn: fn})
		if s.extraStats.CompareAndSwap(old, &next) {
			return
		}
	}
}

// RegisterMetricsExtra appends a writer hook to the /metrics
// exposition; fn must emit well-formed Prometheus text (the fleet
// node uses it for labeled peer-state gauges that the flat counter
// registry cannot express).
func (s *Server) RegisterMetricsExtra(fn func(w io.Writer)) {
	for {
		old := s.extraMetrics.Load()
		var next []func(w io.Writer)
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, fn)
		if s.extraMetrics.CompareAndSwap(old, &next) {
			return
		}
	}
}

// statsResponse documents (and lets tests decode) the /stats shape.
// The counter fields are not rendered from this struct: handleStats
// iterates the shared telemetry registry, so /stats carries exactly
// the counters /metrics exposes, by construction.
type statsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Queries       int64   `json:"queries"`
	Errors        int64   `json:"errors"`
	// Timeouts counts queries abandoned at the server-side deadline
	// (504); Canceled counts queries abandoned because the client went
	// away (499). Neither is a server fault, so they are not Errors.
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	// Shed counts requests rejected by admission control (429 rate /
	// queue pressure and 503 open breaker). Shedding under overload is
	// correct behavior, not an error.
	Shed       int64          `json:"shed"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Registry   registry.Stats `json:"registry"`
	// Admission is the controller's per-tenant/model/gate/breaker
	// snapshot; absent when admission control is disabled.
	Admission *admit.Stats `json:"admission,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"registry":       s.reg.Stats(),
	}
	// One shared registration feeds both surfaces: every counter's
	// JSON key lands here, every counter's family name in /metrics.
	for key, v := range s.tel.CounterValues() {
		out[key] = v
	}
	if s.admission != nil {
		out["admission"] = s.admission.Stats()
	}
	if secs := s.extraStats.Load(); secs != nil {
		for _, sec := range *secs {
			out[sec.key] = sec.fn()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// tracesResponse is the GET /debug/traces shape: the always-retained
// slow/errored/pinned ring and the sampled recent ring, newest first.
type tracesResponse struct {
	SlowThresholdNs time.Duration      `json:"slow_threshold_ns"`
	Slow            []*telemetry.Trace `json:"slow"`
	Recent          []*telemetry.Trace `json:"recent"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	slow, recent := s.tracer.Snapshot()
	if slow == nil {
		slow = []*telemetry.Trace{}
	}
	if recent == nil {
		recent = []*telemetry.Trace{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		SlowThresholdNs: s.tracer.SlowThreshold(),
		Slow:            slow,
		Recent:          recent,
	})
}

// modelSummary is one row of the model list.
type modelSummary struct {
	Name       string `json:"name"`
	Generation int64  `json:"generation"`
	Attrs      int    `json:"attrs"`
	Edges      int    `json:"edges"`
	Rows       int    `json:"rows"`
	K          int    `json:"k"`
	Classify   bool   `json:"classify"`
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	names := s.reg.Names()
	out := make([]modelSummary, 0, len(names))
	for _, name := range names {
		// Peek, not Acquire: a monitoring poll of the model list must
		// not refresh every model's LRU stamp.
		sv := s.reg.Peek(name)
		if sv == nil {
			continue // evicted between Names and Peek
		}
		// Classifiability without forcing the lazy build: a model that
		// carries training rows can classify unless its dominator turns
		// out to cover no targets; only report the cheap signal here.
		out = append(out, modelSummary{
			Name:       name,
			Generation: sv.Generation(),
			Attrs:      sv.Model().Table.NumAttrs(),
			Edges:      sv.Model().H.NumEdges(),
			Rows:       sv.Model().Table.NumRows(),
			K:          sv.Model().Table.K(),
			Classify:   sv.Model().RequireRows() == nil,
		})
		sv.Release()
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

type modelDetail struct {
	modelSummary
	Dominator []string  `json:"dominator"`
	Targets   []string  `json:"targets"`
	Coverage  float64   `json:"coverage"`
	LoadedAt  time.Time `json:"loaded_at"`
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	// The detail view names the serving dominator and targets, so it
	// (lazily, once) builds them through the engine, and that build
	// lands in the request's record like any other. This is a metadata
	// read, not query traffic: it bypasses admission on purpose so
	// operators can inspect a model whose breaker is open, and it has
	// no latency histogram.
	ob := s.open(r, r.PathValue("name"), "model", nil)
	defer ob.finish()
	sv := s.acquire(w, ob)
	if sv == nil {
		return
	}
	defer sv.Release()
	m := sv.Model()
	resp, err := sv.Engine().Do(ob, &engine.Request{Dominators: &engine.DominatorsRequest{}})
	if err != nil {
		ob.status, ob.errMsg = s.failEngine(w, err)
		return
	}
	det := modelDetail{
		modelSummary: modelSummary{
			Name:       sv.Name(),
			Generation: sv.Generation(),
			Attrs:      m.Table.NumAttrs(),
			Edges:      m.H.NumEdges(),
			Rows:       m.Table.NumRows(),
			K:          m.Table.K(),
			// Classifiability without forcing the association tables to
			// build on a metadata read: rows present and the dominator
			// (already built above, under the request context) covering
			// at least one target is exactly the unavailability
			// condition the classifier records.
			Classify: m.RequireRows() == nil && len(resp.Dominators.Targets) > 0,
		},
		Dominator: resp.Dominators.Dominator,
		Targets:   resp.Dominators.Targets,
		Coverage:  resp.Dominators.Coverage,
		LoadedAt:  sv.LoadedAt(),
	}
	writeJSON(w, http.StatusOK, det)
}

type putResponse struct {
	Name       string   `json:"name"`
	Generation int64    `json:"generation"`
	Swapped    bool     `json:"swapped"`
	Evicted    []string `json:"evicted,omitempty"`
	Edges      int      `json:"edges"`
	Rows       int      `json:"rows"`
}

func (s *Server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Admin writes get trace IDs too: load events in the log must be
	// correlatable with the client that triggered them.
	ob := s.open(r, name, "load", s.snapHist)
	defer ob.finish()
	stamp(w.Header(), ob.act.TraceID(), nil)
	raw, err := ReadBody(http.MaxBytesReader(w, r.Body, maxSnapshotBytes), r.ContentLength, maxSnapshotBytes)
	var m *core.Model
	if err == nil {
		m, err = core.DecodeSnapshot(raw)
	}
	if err != nil {
		// An aborted upload surfaces as a body read error; report it as
		// the context outcome, not a malformed snapshot.
		if !ob.failCtx(w, r.Context().Err()) {
			ob.fail(w, http.StatusBadRequest, "snapshot: %v", err)
		}
		return
	}
	info, err := s.reg.LoadContext(ob, name, m)
	if err != nil {
		if !ob.failCtx(w, err) {
			ob.fail(w, http.StatusUnprocessableEntity, "load: %v", err)
		}
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "snapshot loaded",
		slog.String("trace_id", ob.act.TraceID().String()),
		slog.String("kind", "load"),
		slog.String("model", name),
		slog.Int64("generation", info.Generation),
		slog.Int("edges", m.H.NumEdges()),
		slog.Bool("swapped", info.Swapped),
		slog.Duration("duration", time.Since(ob.start).Round(time.Microsecond)))
	w.Header().Set("X-Model-Generation", strconv.FormatInt(info.Generation, 10))
	writeJSON(w, http.StatusOK, putResponse{
		Name:       name,
		Generation: info.Generation,
		Swapped:    info.Swapped,
		Evicted:    info.Evicted,
		Edges:      m.H.NumEdges(),
		Rows:       m.Table.NumRows(),
	})
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ob := s.open(r, name, "unload", nil)
	defer ob.finish()
	stamp(w.Header(), ob.act.TraceID(), nil)
	if !s.reg.Remove(name) {
		ob.fail(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "model unloaded",
		slog.String("trace_id", ob.act.TraceID().String()),
		slog.String("kind", "unload"),
		slog.String("model", name))
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := engine.RulesRequest{Head: q.Get("head")}
	var err error
	if v := q.Get("top"); v != "" {
		if req.Top, err = strconv.Atoi(v); err != nil || req.Top < 1 {
			s.fail(w, http.StatusBadRequest, "bad top %q", v)
			return
		}
	}
	if v := q.Get("min_support"); v != "" {
		if req.MinSupport, err = strconv.ParseFloat(v, 64); err != nil {
			s.fail(w, http.StatusBadRequest, "bad min_support %q", v)
			return
		}
	}
	if v := q.Get("min_confidence"); v != "" {
		if req.MinConfidence, err = strconv.ParseFloat(v, 64); err != nil {
			s.fail(w, http.StatusBadRequest, "bad min_confidence %q", v)
			return
		}
	}
	resp := s.do(w, r, r.PathValue("name"), &engine.Request{Rules: &req})
	if resp == nil {
		return
	}
	writeJSON(w, http.StatusOK, resp.Rules)
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := engine.SimilarRequest{A: q.Get("a"), B: q.Get("b")}
	if v := q.Get("top"); v != "" {
		var err error
		if req.Top, err = strconv.Atoi(v); err != nil || req.Top < 1 {
			s.fail(w, http.StatusBadRequest, "bad top %q", v)
			return
		}
	}
	resp := s.do(w, r, r.PathValue("name"), &engine.Request{Similar: &req})
	if resp == nil {
		return
	}
	writeJSON(w, http.StatusOK, resp.Similar)
}

func (s *Server) handleDominators(w http.ResponseWriter, r *http.Request) {
	resp := s.do(w, r, r.PathValue("name"), &engine.Request{Dominators: &engine.DominatorsRequest{}})
	if resp == nil {
		return
	}
	writeJSON(w, http.StatusOK, resp.Dominators)
}

// handleClassify serves /classify (single observation) and, with batch
// set, /classify:batch (rows only).
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request, batch bool) {
	cb, err := s.readClassify(w, r, batch)
	defer s.putClassify(cb)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "body: %v", err)
		return
	}
	resp := s.do(w, r, r.PathValue("name"), &engine.Request{Classify: &cb.req})
	if resp == nil {
		return
	}
	writeJSON(w, http.StatusOK, resp.Classify)
}

// handleQuery serves POST /v1/models/{name}:query — the typed engine
// request surface, including mixed batches. It is mounted on a
// catch-all (":query" cannot be a ServeMux wildcard suffix), so it
// rejects every other POST shape with 404.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	// Split the escaped path, so a model name holding "/" (sent as %2F)
	// stays one segment.
	esc, op := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/models/"), ""
	if i := strings.LastIndexByte(esc, ':'); i >= 0 {
		esc, op = esc[:i], esc[i:]
	}
	name, err := url.PathUnescape(esc)
	if err != nil || name == "" || strings.Contains(esc, "/") || (op != ":append" && op != ":query") {
		s.fail(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
		return
	}
	if op == ":append" {
		s.handleAppend(w, r, name)
		return
	}
	var req engine.Request
	if _, err := s.readJSON(w, r, maxQueryBytes, &req, true); err != nil {
		s.fail(w, http.StatusBadRequest, "body: %v", err)
		return
	}
	resp := s.do(w, r, name, &req)
	if resp == nil {
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
