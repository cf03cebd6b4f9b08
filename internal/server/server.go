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

// WithAdmission puts an admission controller in front of every query:
// each request through the do() funnel is checked against the
// per-model circuit breaker, the per-tenant (X-Tenant header) and
// per-model token buckets, and the cost-class concurrency gate before
// it reaches Engine.Do. Shed requests get 429/503 with a Retry-After
// header; admitted requests feed their outcome back to the breaker.
// Metadata endpoints (model list/detail) and admin writes are exempt.
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

// WithSlowQueryLog logs every query whose handling exceeds threshold
// as a structured slog event carrying trace_id, kind (request
// variant), model, tenant, total duration, and per-phase attribution
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

// WithTracer enables request tracing: every query through the do()
// funnel gets a trace ID (minted, or adopted from an inbound W3C
// traceparent header), echoed as X-Trace-Id; engine phase spans attach
// to the trace; slow, errored, shed, and pinned traces are always
// retained in the tracer's ring and served at GET /debug/traces
// (mounted only when tracing is on, like pprof). nil disables tracing
// (the default): no trace IDs, no /debug/traces.
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
				"Query latency through the query funnel (admission wait + engine), per request kind and cost class.",
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
		"Wall time to decode and publish a PUT snapshot (read + engine wrap + warmup + swap).", "")
	s.appendHist = s.tel.Histogram("hypermined_append_seconds",
		"Wall time to delta-append rows and republish a model (parse + delta + rewarm + swap).", "")

	if s.admission != nil {
		s.admission.ObserveQueueWait(func(class admit.Class, d time.Duration) {
			if int(class) < numClasses {
				s.queueHist[class].Observe(d)
			}
		})
	}
	s.obsPool.New = func() any {
		ob := &reqObs{plog: runopt.NewPhaseLog()}
		ob.plog.KeepRecords(telemetry.MaxTraceSpans)
		return ob
	}
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

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errs.Inc()
	s.writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// failCtx maps a context-shaped failure to its distinct status —
// 504 for an expired server-side query deadline, 499 for a client
// that went away — and reports whether it handled err. Neither case
// counts as a server error: they land in the timeouts / canceled
// counters instead of errs. Handlers fall through to their normal
// error mapping when failCtx returns false.
func (s *Server) failCtx(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Inc()
		s.writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "query deadline exceeded"})
		return true
	case errors.Is(err, context.Canceled):
		s.canceled.Inc()
		s.writeJSON(w, StatusClientClosedRequest, errorBody{Error: "request canceled by client"})
		return true
	}
	return false
}

// ctxStatus maps a context-shaped failure to the status failCtx
// writes for it (0 when err is not context-shaped).
func ctxStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	}
	return 0
}

// engineStatus maps an Engine.Do error to the HTTP status failEngine
// writes for it; telemetry records the same value.
func engineStatus(err error) int {
	if code := ctxStatus(err); code != 0 {
		return code
	}
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

// failEngine maps an Engine.Do error onto HTTP: context outcomes keep
// their 504/499 semantics, typed engine errors map by kind
// (bad_request -> 400, unavailable -> 409), anything else is a 500.
func (s *Server) failEngine(w http.ResponseWriter, err error) {
	if s.failCtx(w, err) {
		return
	}
	var ee *engine.Error
	if errors.As(err, &ee) {
		switch ee.Kind {
		case engine.ErrBadRequest:
			s.fail(w, http.StatusBadRequest, "%s", ee.Message)
		case engine.ErrUnavailable:
			s.fail(w, http.StatusConflict, "%s", ee.Message)
		default:
			s.fail(w, http.StatusInternalServerError, "%s", ee.Message)
		}
		return
	}
	s.fail(w, http.StatusInternalServerError, "%v", err)
}

// acquire resolves the named model or writes a 404, stamping the
// serving generation on the response.
func (s *Server) acquire(w http.ResponseWriter, name string) *registry.Served {
	sv := s.reg.Acquire(name)
	if sv == nil {
		s.fail(w, http.StatusNotFound, "unknown model %q", name)
		return nil
	}
	stamp(w.Header(), nil, sv)
	s.queries.Inc()
	sv.CountQuery()
	return sv
}

// reqObs is the pooled per-request observation record behind the do()
// funnel: latency histogram indices, trace state, and the phase log,
// finished exactly once via a deferred method call (a method value on
// a pooled pointer, so the steady-state telemetry bookkeeping itself
// performs no heap allocation).
//
// While the engine runs, the record is also the request's context:
// it answers the trace and phase-log keys itself (see Value), so both
// reach the engine without a value context per request.
type reqObs struct {
	context.Context // the request context, set only while the engine runs

	s      *Server
	name   string
	kind   string
	tenant string
	ki, ci int
	start  time.Time
	status int
	errMsg string
	act    *telemetry.Active
	plog   *runopt.PhaseLog
	logged bool // the engine ran under this record as its context
}

// Value answers the in-flight trace and the phase log; every other key
// falls through to the request context.
//
//hyper:noalloc
func (ob *reqObs) Value(key any) any {
	switch key.(type) {
	case telemetry.TraceKey:
		if ob.act != nil {
			return ob.act
		}
	case runopt.PhaseLogKey:
		return ob.plog
	}
	return ob.Context.Value(key)
}

// setErr records the telemetry-visible outcome of a failed request.
func (ob *reqObs) setErr(status int, msg string) {
	ob.status = status
	ob.errMsg = msg
}

// finish observes the request latency, feeds phase spans to the phase
// histograms and the trace, emits the slow-query log, completes the
// trace, and recycles the record.
func (ob *reqObs) finish() {
	s := ob.s
	elapsed := time.Since(ob.start)
	s.reqHist[ob.ki][ob.ci].Observe(elapsed)
	if ob.logged {
		startNs := ob.start
		ob.plog.VisitRecords(func(rec runopt.PhaseRecord) {
			if h := s.phaseHist[rec.Phase]; h != nil {
				h.Observe(rec.Duration)
			}
			ob.act.AddSpan(string(rec.Phase), rec.Start.Sub(startNs).Nanoseconds(), rec.Duration.Nanoseconds())
		})
	}
	if s.slowQuery > 0 && elapsed >= s.slowQuery {
		ob.act.Pin() // nil-safe: keep the logged trace resolvable
		s.logSlow(ob, elapsed)
	}
	if s.tracer != nil {
		s.tracer.Finish(ob.act, elapsed, ob.status, ob.errMsg)
	}
	ob.plog.Reset()
	ob.Context = nil
	ob.act = nil
	ob.errMsg = ""
	ob.logged = false
	s.obsPool.Put(ob)
}

// do routes one typed request through the named model's engine and
// returns the response, handling 404/admission/err reporting itself
// (nil means "already written"). It is the single funnel every query
// handler uses, so admission control, latency histograms, request
// tracing, slow-query logging, and breaker feedback cover the whole
// query surface at one call site.
func (s *Server) do(w http.ResponseWriter, r *http.Request, name string, req *engine.Request) *engine.Response {
	class := classOf(req)
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = admit.DefaultTenant
	}

	ob := s.obsPool.Get().(*reqObs)
	ob.s = s
	ob.name = name
	ob.kind = reqKind(req)
	ob.tenant = tenant
	ob.ki, ob.ci = kindIndex(req), int(class)
	ob.start = time.Now()
	ob.status = http.StatusOK
	if s.tracer != nil {
		// Looked up by its canonical key: Get("traceparent") would
		// canonicalize, and allocate, on every request.
		id, _ := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
		ob.act = s.tracer.Start(id, ob.kind, name, tenant)
	}
	defer ob.finish()

	sv := s.reg.Acquire(name)
	if sv == nil {
		stamp(w.Header(), ob.act, nil)
		ob.setErr(http.StatusNotFound, "unknown model")
		s.fail(w, http.StatusNotFound, "unknown model %q", name)
		return nil
	}
	defer sv.Release()
	// The answer below comes from exactly this generation's engine —
	// stamp it so clients racing an :append can attribute the response.
	stamp(w.Header(), ob.act, sv)
	s.queries.Inc()
	sv.CountQuery()

	var tk admit.Ticket // zero Ticket when admission is off; Done is a no-op
	if s.admission != nil {
		_, rej, err := s.admission.AdmitInto(r.Context(), &tk, r.Header.Get("X-Tenant"), name, class)
		if err != nil {
			// The context ended while the request waited in a gate
			// queue: report it like any other context outcome.
			if s.failCtx(w, err) {
				ob.setErr(ctxStatus(err), err.Error())
			} else {
				ob.setErr(http.StatusInternalServerError, err.Error())
				s.fail(w, http.StatusInternalServerError, "admission: %v", err)
			}
			return nil
		}
		if rej != nil {
			ob.setErr(rej.Status, "overloaded: "+string(rej.Reason))
			s.reject(w, rej)
			return nil
		}
	}

	ctx := r.Context()
	if ob.act != nil || s.slowQuery > 0 {
		ob.logged = true
		ob.Context = ctx
		ctx = ob
	}
	resp, err := sv.Engine().Do(ctx, req)
	tk.Done(outcomeOf(err)) // nil-safe; idempotent
	if err != nil {
		ob.setErr(engineStatus(err), err.Error())
		s.failEngine(w, err)
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

// outcomeOf classifies an Engine.Do error for the model's circuit
// breaker: an expired deadline or an internal fault is a model
// failure; a client hanging up is neutral; a well-formed client error
// (bad_request, unavailable) means the engine itself worked.
func outcomeOf(err error) admit.Outcome {
	switch {
	case err == nil:
		return admit.OutcomeOK
	case errors.Is(err, context.Canceled):
		return admit.OutcomeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return admit.OutcomeFailure
	}
	var ee *engine.Error
	if errors.As(err, &ee) && ee.Kind != engine.ErrInternal {
		return admit.OutcomeOK
	}
	return admit.OutcomeFailure
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

// reject writes an admission rejection: the controller's chosen status
// (429 for rate/queue pressure, 503 for an open breaker) plus a
// Retry-After header. Shedding is the system working as designed, so
// it lands in the shed counter, not errs.
func (s *Server) reject(w http.ResponseWriter, rej *admit.Rejection) {
	s.shed.Inc()
	secs := retryAfterSeconds(rej.RetryAfter)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, rej.Status, rejectionBody{
		Error:             "overloaded: " + string(rej.Reason),
		Reason:            string(rej.Reason),
		RetryAfterSeconds: secs,
	})
}

// reqKind names the request variant for logs and trace records.
func reqKind(req *engine.Request) string {
	return queryKinds[kindIndex(req)]
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
		slog.String("phases", ob.plog.String()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "not ready", "reason": err.Error(),
			})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
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
	s.writeJSON(w, http.StatusOK, out)
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
	s.writeJSON(w, http.StatusOK, tracesResponse{
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
	s.writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

type modelDetail struct {
	modelSummary
	Dominator []string  `json:"dominator"`
	Targets   []string  `json:"targets"`
	Coverage  float64   `json:"coverage"`
	LoadedAt  time.Time `json:"loaded_at"`
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	sv := s.acquire(w, r.PathValue("name"))
	if sv == nil {
		return
	}
	defer sv.Release()
	m := sv.Model()
	// The detail view names the serving dominator and targets, so it
	// (lazily, once) builds them through the engine. This is a metadata
	// read, not query traffic: it bypasses admission on purpose so
	// operators can inspect a model whose breaker is open.
	resp, err := sv.Engine().Do(r.Context(), &engine.Request{Dominators: &engine.DominatorsRequest{}})
	if err != nil {
		s.failEngine(w, err)
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
	s.writeJSON(w, http.StatusOK, det)
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
	var act *telemetry.Active
	if s.tracer != nil {
		id, _ := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
		act = s.tracer.Start(id, "load", name, r.Header.Get("X-Tenant"))
		w.Header().Set("X-Trace-Id", act.TraceID().String())
	}
	start := time.Now()
	finish := func(status int, errMsg string) {
		if s.tracer != nil {
			s.tracer.Finish(act, time.Since(start), status, errMsg)
		}
	}
	body := http.MaxBytesReader(w, r.Body, maxSnapshotBytes)
	m, err := core.ReadSnapshot(body)
	if err != nil {
		// An aborted upload surfaces as a body read error; report it as
		// the context outcome, not a malformed snapshot.
		if ctxErr := r.Context().Err(); ctxErr != nil && s.failCtx(w, ctxErr) {
			finish(ctxStatus(ctxErr), ctxErr.Error())
			return
		}
		finish(http.StatusBadRequest, err.Error())
		s.fail(w, http.StatusBadRequest, "snapshot: %v", err)
		return
	}
	info, err := s.reg.LoadContext(r.Context(), name, m)
	if err != nil {
		if s.failCtx(w, err) {
			finish(ctxStatus(err), err.Error())
			return
		}
		finish(http.StatusUnprocessableEntity, err.Error())
		s.fail(w, http.StatusUnprocessableEntity, "load: %v", err)
		return
	}
	elapsed := time.Since(start)
	s.snapHist.Observe(elapsed)
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "snapshot loaded",
		slog.String("trace_id", act.TraceID().String()),
		slog.String("kind", "load"),
		slog.String("model", name),
		slog.Int64("generation", info.Generation),
		slog.Int("edges", m.H.NumEdges()),
		slog.Bool("swapped", info.Swapped),
		slog.Duration("duration", elapsed.Round(time.Microsecond)))
	finish(http.StatusOK, "")
	w.Header().Set("X-Model-Generation", strconv.FormatInt(info.Generation, 10))
	s.writeJSON(w, http.StatusOK, putResponse{
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
	var id telemetry.TraceID
	if s.tracer != nil {
		id = s.tracer.MintID()
		w.Header().Set("X-Trace-Id", id.String())
	}
	if !s.reg.Remove(name) {
		s.fail(w, http.StatusNotFound, "unknown model %q", name)
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "model unloaded",
		slog.String("trace_id", id.String()),
		slog.String("kind", "unload"),
		slog.String("model", name))
	s.writeJSON(w, http.StatusOK, map[string]string{"removed": name})
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
	s.writeJSON(w, http.StatusOK, resp.Rules)
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
	s.writeJSON(w, http.StatusOK, resp.Similar)
}

func (s *Server) handleDominators(w http.ResponseWriter, r *http.Request) {
	resp := s.do(w, r, r.PathValue("name"), &engine.Request{Dominators: &engine.DominatorsRequest{}})
	if resp == nil {
		return
	}
	s.writeJSON(w, http.StatusOK, resp.Dominators)
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
	s.writeJSON(w, http.StatusOK, resp.Classify)
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
	s.writeJSON(w, http.StatusOK, resp)
}
