package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/telemetry"
)

// defaultMaxForwardBody bounds a buffered request body the router
// holds for failover replay. Request bodies must be fully buffered
// (a write that fails over is replayed verbatim on the next owner), so
// the routing tier's default is deliberately far below the node's
// 1 GiB snapshot bound — a handful of concurrent huge PUTs must not
// exhaust router memory. Raise via RouterConfig.MaxBodyBytes.
const defaultMaxForwardBody = 64 << 20

// maxRetainedErrorBody bounds how much of a failed (retriable) replica
// response the router keeps in memory for the all-replicas-failed
// fallback answer. Successful responses are streamed, never buffered.
const maxRetainedErrorBody = 64 << 10

// RouterConfig configures the stateless fleet router.
type RouterConfig struct {
	// Peers maps replica node names to their base URLs. The router's
	// ring is built over exactly these names.
	Peers map[string]string
	// Replicas / VNodes mirror the nodes' ring parameters; every fleet
	// member and the router must agree or routing misses owners.
	Replicas int
	VNodes   int
	// Client performs the forwards. Nil uses a dedicated client with a
	// sane timeout.
	Client *http.Client
	// MaxBodyBytes bounds a request body the router buffers for
	// failover replay; larger bodies are rejected with 400. <= 0 means
	// the 64 MiB default.
	MaxBodyBytes int64
	// Admission, when set, sheds load at the router before any network
	// hop: model-scoped requests pass the same tenant/model/class
	// admission funnel a serving node applies. Nil disables.
	Admission *admit.Controller
	// Tracer, when set, gives every routed request a trace ID (adopted
	// from an inbound traceparent or minted) that is propagated to the
	// chosen replica via the traceparent header, so one distributed
	// trace covers router and replica.
	Tracer *telemetry.Tracer
	// Logger receives structured routing events. Nil discards.
	Logger *slog.Logger
}

// Router is the fleet's client-facing entry point: it speaks the same
// /v1/models API as a serving node, maps each model-scoped request to
// the model's replica set on the consistent-hash ring, and forwards to
// the first answering owner. Reads fail over to the next replica on
// connection failure, 5xx, or 404 (a lagging replica that has not
// pulled the model yet); writes fail over only on connection failure,
// 404, or an explicit not-ready 503 (X-Fleet-Not-Ready) — any other
// 5xx on a write is returned as-is, because an :append that may have
// been applied must not be blindly retried on another node.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	client *http.Client
	logger *slog.Logger
	mux    *http.ServeMux
	start  time.Time

	tel       *telemetry.Registry
	forwards  *telemetry.Counter
	failovers *telemetry.Counter
	routeErrs *telemetry.Counter
	shed      *telemetry.Counter
}

// NewRouter builds a router over the given fleet membership.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("fleet: router needs at least one peer")
	}
	names := make([]string, 0, len(cfg.Peers))
	for name, url := range cfg.Peers {
		if name == "" || url == "" {
			return nil, errors.New("fleet: peer entries need both name and url")
		}
		names = append(names, name)
	}
	sort.Strings(names)
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(cfg.VNodes, cfg.Replicas, names),
		client: cfg.Client,
		logger: cfg.Logger,
		start:  time.Now(),
		tel:    telemetry.NewRegistry(),
	}
	if rt.client == nil {
		rt.client = &http.Client{Timeout: 30 * time.Second}
	}
	if rt.logger == nil {
		rt.logger = slog.New(slog.DiscardHandler)
	}
	rt.forwards = rt.tel.Counter("hypermined_router_forwards_total", "forwards",
		"Requests forwarded to a replica (first attempt and failovers each count once).")
	rt.failovers = rt.tel.Counter("hypermined_router_failovers_total", "failovers",
		"Forwards that moved on to the next replica after a failure.")
	rt.routeErrs = rt.tel.Counter("hypermined_router_errors_total", "errors",
		"Requests the router could not answer from any replica.")
	rt.shed = rt.tel.Counter("hypermined_router_shed_total", "shed",
		"Requests rejected by router-side admission control.")

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /readyz", rt.handleReadyz)
	rt.mux.HandleFunc("GET /stats", rt.handleStats)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/models", rt.handleListModels)
	rt.mux.HandleFunc("/v1/models/", rt.handleModelScoped)
	return rt, nil
}

// Ring returns the router's consistent-hash ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "mode": "router"})
}

// handleReadyz reports ready when at least one replica is ready: a
// router with a quorumless fleet can answer nothing, but a single
// ready replica restores (degraded) service for its shard.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, peer := range rt.ring.Nodes() {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.cfg.Peers[peer]+"/readyz", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready", "mode": "router"})
			return
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{
		"status": "not ready", "mode": "router", "reason": "no ready replica",
	})
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"mode":           "router",
		"uptime_seconds": time.Since(rt.start).Seconds(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"ring":           rt.ring.String(),
		"peers":          len(rt.cfg.Peers),
	}
	for key, v := range rt.tel.CounterValues() {
		out[key] = v
	}
	if rt.cfg.Admission != nil {
		out["admission"] = rt.cfg.Admission.Stats()
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP hypermined_uptime_seconds Seconds since the router started.\n# TYPE hypermined_uptime_seconds gauge\nhypermined_uptime_seconds %g\n",
		time.Since(rt.start).Seconds())
	_ = rt.tel.WritePrometheus(w)
}

// handleListModels fans GET /v1/models out to every replica and merges
// the union: each model is reported once, at the newest generation any
// replica serves (replicas lagging gossip may briefly disagree).
func (rt *Router) handleListModels(w http.ResponseWriter, r *http.Request) {
	type modelRow = map[string]any
	best := map[string]modelRow{}
	bestGen := map[string]int64{}
	for _, peer := range rt.ring.Nodes() {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.cfg.Peers[peer]+"/v1/models", nil)
		if err != nil {
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		var body struct {
			Models []modelRow `json:"models"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		for _, m := range body.Models {
			name, _ := m["name"].(string)
			if name == "" {
				continue
			}
			gen, _ := m["generation"].(float64)
			if cur, ok := bestGen[name]; !ok || int64(gen) > cur {
				best[name] = m
				bestGen[name] = int64(gen)
			}
		}
	}
	names := make([]string, 0, len(best))
	for name := range best {
		names = append(names, name)
	}
	sort.Strings(names)
	models := make([]modelRow, 0, len(names))
	for _, name := range names {
		models = append(models, best[name])
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": models})
}

// modelPath splits a /v1/models/{name}{rest} request. The name is the
// first segment of the escaped path, stopped at "/" or ":", then
// unescaped, so a name holding "/", "?", "#", "%" or a space is itself
// and not the prefix the decoded path shows. An invalid escape yields
// no name.
func modelPath(r *http.Request) (name, rest string) {
	p, ok := strings.CutPrefix(r.URL.EscapedPath(), "/v1/models/")
	if !ok {
		return "", ""
	}
	i := strings.IndexAny(p, "/:")
	if i < 0 {
		i = len(p)
	}
	name, err := url.PathUnescape(p[:i])
	if err != nil {
		return "", ""
	}
	return name, p[i:]
}

// isWrite reports whether a model-scoped request mutates fleet state.
// Writes never blindly retry on a 5xx: an :append that the replica may
// already have applied must not be replayed elsewhere.
func isWrite(r *http.Request) bool {
	switch r.Method {
	case http.MethodPut, http.MethodDelete:
		return true
	case http.MethodPost:
		return strings.HasSuffix(r.URL.Path, ":append")
	}
	return false
}

// costClass mirrors the serving node's request-cost vocabulary at the
// routing layer, by path shape: rule mining and admin writes are
// expensive, warm reads are cheap. (:query batches are classified
// expensive — the router does not parse bodies.)
func costClass(r *http.Request) admit.Class {
	if isWrite(r) || strings.HasSuffix(r.URL.Path, "/rules") || strings.HasSuffix(r.URL.Path, ":query") {
		return admit.Expensive
	}
	return admit.Cheap
}

// handleModelScoped routes one model-scoped request to the model's
// replica set with failover.
func (rt *Router) handleModelScoped(w http.ResponseWriter, r *http.Request) {
	name, _ := modelPath(r)
	if name == "" {
		http.Error(w, `{"error":"bad model path"}`, http.StatusNotFound)
		return
	}

	var act *telemetry.Active
	traceStart := time.Now()
	if rt.cfg.Tracer != nil {
		id, _ := telemetry.ParseTraceparent(r.Header.Get("Traceparent"))
		act = rt.cfg.Tracer.Start(id, "route", name, r.Header.Get("X-Tenant"))
		w.Header().Set("X-Trace-Id", act.TraceID().String())
	}
	status := http.StatusOK
	errMsg := ""
	defer func() {
		if rt.cfg.Tracer != nil {
			rt.cfg.Tracer.Finish(act, time.Since(traceStart), status, errMsg)
		}
	}()

	if rt.cfg.Admission != nil {
		var tk admit.Ticket
		_, rej, err := rt.cfg.Admission.AdmitInto(r.Context(), &tk, r.Header.Get("X-Tenant"), name, costClass(r))
		if err != nil {
			status, errMsg = http.StatusInternalServerError, err.Error()
			writeJSON(w, status, map[string]string{"error": "admission: " + err.Error()})
			return
		}
		if rej != nil {
			rt.shed.Inc()
			status, errMsg = rej.Status, "overloaded: "+string(rej.Reason)
			secs := int((rej.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, rej.Status, map[string]any{
				"error":               "overloaded: " + string(rej.Reason),
				"reason":              string(rej.Reason),
				"retry_after_seconds": secs,
			})
			return
		}
		defer func() {
			if status >= 500 {
				tk.Done(admit.OutcomeFailure)
			} else {
				tk.Done(admit.OutcomeOK)
			}
		}()
	}

	// Buffer the request body once so failover can replay it. The bound
	// is the router's own (default 64 MiB), not the node's snapshot
	// bound: the routing tier holds one buffered body per in-flight
	// request and must stay far from memory exhaustion.
	maxBody := rt.cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxForwardBody
	}
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			status = http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			errMsg = err.Error()
			writeJSON(w, status, map[string]string{"error": "body: " + err.Error()})
			return
		}
		body = b
	}

	owners := rt.ring.Owners(name)
	write := isWrite(r)
	var lastStatus int
	var lastBody []byte
	var lastHeader http.Header
	var lastErr error
	for attempt, peer := range owners {
		if attempt > 0 {
			rt.failovers.Inc()
		}
		rt.forwards.Inc()
		resp, err := rt.forward(r, peer, body, act)
		if err != nil {
			// Transport failure: the request never reached (or never got
			// an answer from) the replica. For reads this is always safe
			// to retry; for writes, a connection error on loopback means
			// the replica is down and the request was not applied — the
			// next owner becomes the acting owner for this write.
			lastErr = err
			rt.logger.LogAttrs(r.Context(), slog.LevelWarn, "route attempt failed",
				slog.String("model", name), slog.String("peer", peer),
				slog.String("error", err.Error()))
			continue
		}
		// A 503 carrying X-Fleet-Not-Ready is an explicit "not applied"
		// from a replica still converging after restart — safe to fail
		// over even for writes.
		unready := resp.StatusCode == http.StatusServiceUnavailable &&
			resp.Header.Get("X-Fleet-Not-Ready") != ""
		retriable := resp.StatusCode == http.StatusNotFound || unready ||
			(!write && resp.StatusCode >= 500)
		if retriable && attempt < len(owners)-1 {
			// 404 = this replica has not (re)gained the model yet; 5xx on
			// a read = replica-local fault. Either way another owner may
			// hold the answer. Retain only a bounded prefix of the error
			// body for the all-replicas-failed fallback.
			respBody, _ := io.ReadAll(io.LimitReader(resp.Body, maxRetainedErrorBody))
			resp.Body.Close()
			lastStatus, lastBody, lastHeader = resp.StatusCode, respBody, resp.Header
			continue
		}
		// This response is final: stream it to the client instead of
		// buffering it (a large snapshot or rules answer must not sit in
		// router memory once per in-flight request).
		status = resp.StatusCode
		if err := rt.streamProxied(w, resp); err != nil {
			// Headers are already written; nothing to salvage but log it.
			rt.logger.LogAttrs(r.Context(), slog.LevelWarn, "proxied response stream failed",
				slog.String("model", name), slog.String("peer", peer),
				slog.String("error", err.Error()))
		}
		resp.Body.Close()
		return
	}
	// Every owner failed. Prefer the most recent HTTP answer (e.g. a
	// 404 from all replicas is a real 404); fall back to 502.
	rt.routeErrs.Inc()
	if lastHeader != nil {
		status, errMsg = lastStatus, "all replicas failed"
		rt.writeProxied(w, lastHeader, lastStatus, lastBody)
		return
	}
	status, errMsg = http.StatusBadGateway, "no replica reachable"
	if lastErr != nil {
		errMsg = lastErr.Error()
	}
	writeJSON(w, http.StatusBadGateway, map[string]string{
		"error": "no replica reachable for model " + name,
	})
}

// forward sends one copy of the request to one peer.
func (rt *Router) forward(r *http.Request, peer string, body []byte, act *telemetry.Active) (*http.Response, error) {
	u := rt.cfg.Peers[peer] + r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "X-Tenant", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	// Propagate the distributed trace: the replica adopts this ID, so
	// its engine-phase spans land in the same trace the router logs.
	// Canonical keys: a lowercase one is canonicalized, and
	// allocated, on every call.
	if act != nil {
		req.Header.Set("Traceparent", telemetry.Traceparent(act.TraceID()))
	} else if tp := r.Header.Get("Traceparent"); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	return rt.client.Do(req)
}

// writeProxied relays an already-buffered replica response (status,
// relevant headers, body) to the client — used only for the bounded
// error bodies kept around for the all-replicas-failed fallback.
func (rt *Router) writeProxied(w http.ResponseWriter, h http.Header, status int, body []byte) {
	proxyHeaders(w, h)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// streamProxied relays a replica response to the client by streaming
// its body — the router never holds a full successful response in
// memory. The caller closes resp.Body.
func (rt *Router) streamProxied(w http.ResponseWriter, resp *http.Response) error {
	proxyHeaders(w, resp.Header)
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	_, err := io.Copy(w, resp.Body)
	return err
}

// proxyHeaders copies the replica headers the fleet contract forwards.
func proxyHeaders(w http.ResponseWriter, h http.Header) {
	for _, k := range []string{"Content-Type", "X-Model-Generation", "Retry-After"} {
		if v := h.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

// writeJSON is the router's minimal JSON response helper.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
