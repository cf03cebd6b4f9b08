package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"hypermine/internal/admit"
)

// scripted is a fake replica endpoint with a swappable response and a
// hit counter.
type scripted struct {
	hits atomic.Int64
	fn   atomic.Pointer[http.HandlerFunc]
}

func (s *scripted) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.hits.Add(1)
	if fn := s.fn.Load(); fn != nil {
		(*fn)(w, r)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *scripted) respond(fn http.HandlerFunc) { s.fn.Store(&fn) }

// newScriptedRouter builds a router over two scripted peers and
// returns it with the peers keyed by ring position for the model "m":
// index 0 is the primary owner, index 1 the secondary.
func newScriptedRouter(t *testing.T) (*Router, string, [2]*scripted) {
	t.Helper()
	backends := map[string]*scripted{"a": {}, "b": {}}
	peers := map[string]string{}
	for name, b := range backends {
		ts := httptest.NewServer(b)
		t.Cleanup(ts.Close)
		peers[name] = ts.URL
	}
	rt, err := NewRouter(RouterConfig{Peers: peers, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	owners := rt.Ring().Owners("m")
	if len(owners) != 2 {
		t.Fatalf("owners(m) = %v, want 2", owners)
	}
	return rt, "m", [2]*scripted{backends[owners[0]], backends[owners[1]]}
}

// do routes one request through the router handler.
func doRoute(t *testing.T, rt *Router, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRouterReadFailover pins read failover: a 404 from the primary
// (a replica that has not re-pulled the model) moves the read to the
// secondary, whose answer — body, generation header — is relayed.
func TestRouterReadFailover(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	owners[0].respond(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown model"}`, http.StatusNotFound)
	})
	owners[1].respond(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Model-Generation", "7")
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"dominators":[]}`)
	})

	rec := doRoute(t, rt, http.MethodGet, "/v1/models/"+model+"/dominators", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("routed read = %d (%s), want 200 via failover", rec.Code, rec.Body)
	}
	if g := rec.Header().Get("X-Model-Generation"); g != "7" {
		t.Errorf("generation header %q not relayed", g)
	}
	if owners[0].hits.Load() != 1 || owners[1].hits.Load() != 1 {
		t.Errorf("hits = %d/%d, want 1/1", owners[0].hits.Load(), owners[1].hits.Load())
	}
}

// TestRouterReadFailover5xx pins that reads also fail over on a 5xx
// replica fault.
func TestRouterReadFailover5xx(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	owners[0].respond(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	owners[1].respond(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"rules":[]}`)
	})
	rec := doRoute(t, rt, http.MethodGet, "/v1/models/"+model+"/rules?head=Aa", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("routed read = %d, want 200 via 5xx failover", rec.Code)
	}
}

// TestRouterWriteNoBlindRetry pins the write-safety contract: a plain
// 500 on an :append (the replica may have applied it) is returned
// as-is and never replayed on another owner.
func TestRouterWriteNoBlindRetry(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	owners[0].respond(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"mid-append crash"}`, http.StatusInternalServerError)
	})
	rec := doRoute(t, rt, http.MethodPost, "/v1/models/"+model+":append", `{"rows":[[1]]}`)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("write after primary 500 = %d, want the 500 relayed", rec.Code)
	}
	if owners[1].hits.Load() != 0 {
		t.Fatalf("write was replayed on the secondary after an ambiguous 500 (%d hits)", owners[1].hits.Load())
	}
}

// TestRouterWriteFailoverNotReady pins the explicit safe case: a 503
// carrying X-Fleet-Not-Ready means "definitely not applied", so the
// write moves to the next owner.
func TestRouterWriteFailoverNotReady(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	owners[0].respond(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Fleet-Not-Ready", "1")
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"converging"}`, http.StatusServiceUnavailable)
	})
	var gotBody atomic.Pointer[string]
	owners[1].respond(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		s := string(b)
		gotBody.Store(&s)
		w.Header().Set("X-Model-Generation", "3")
		io.WriteString(w, `{"appended":1}`)
	})
	body := `{"rows":[[1,2]]}`
	rec := doRoute(t, rt, http.MethodPost, "/v1/models/"+model+":append", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("write after not-ready 503 = %d, want 200 via failover", rec.Code)
	}
	if got := gotBody.Load(); got == nil || *got != body {
		t.Fatalf("failover replayed body %v, want %q", got, body)
	}
}

// TestRouterWriteFailoverTransport pins that a connection failure (the
// replica process is gone — nothing was applied) fails a write over.
func TestRouterWriteFailoverTransport(t *testing.T) {
	backends := map[string]*scripted{"a": {}, "b": {}}
	peers := map[string]string{}
	servers := map[string]*httptest.Server{}
	for name, b := range backends {
		ts := httptest.NewServer(b)
		t.Cleanup(ts.Close)
		peers[name] = ts.URL
		servers[name] = ts
	}
	rt, err := NewRouter(RouterConfig{Peers: peers, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	owners := rt.Ring().Owners("m")
	servers[owners[0]].Close() // primary dies
	backends[owners[1]].respond(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"appended":2}`)
	})
	rec := doRoute(t, rt, http.MethodPost, "/v1/models/m:append", `{"rows":[[1,2]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("write after primary death = %d (%s), want 200", rec.Code, rec.Body)
	}
	if backends[owners[1]].hits.Load() != 1 {
		t.Fatalf("secondary hits = %d, want 1", backends[owners[1]].hits.Load())
	}
}

// TestRouterAll404 pins answer preference: when every replica gives the
// same real HTTP answer (model truly absent), the router relays it
// instead of masking it as a 502.
func TestRouterAll404(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	nf := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown model"}`, http.StatusNotFound)
	}
	owners[0].respond(nf)
	owners[1].respond(nf)
	rec := doRoute(t, rt, http.MethodGet, "/v1/models/"+model+"/dominators", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("all-404 routed as %d, want 404 relayed", rec.Code)
	}
}

// TestRouterNoReplicaReachable pins the terminal failure: every owner
// unreachable yields 502.
func TestRouterNoReplicaReachable(t *testing.T) {
	tsA := httptest.NewServer(http.NotFoundHandler())
	tsB := httptest.NewServer(http.NotFoundHandler())
	peers := map[string]string{"a": tsA.URL, "b": tsB.URL}
	tsA.Close()
	tsB.Close()
	rt, err := NewRouter(RouterConfig{Peers: peers, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := doRoute(t, rt, http.MethodGet, "/v1/models/m/dominators", "")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("unreachable fleet routed as %d, want 502", rec.Code)
	}
}

// TestRouterTracePropagation pins that an inbound traceparent is passed
// through to the replica even without a router-side tracer.
func TestRouterTracePropagation(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	var seen atomic.Pointer[string]
	owners[0].respond(func(w http.ResponseWriter, r *http.Request) {
		tp := r.Header.Get("traceparent")
		seen.Store(&tp)
		io.WriteString(w, `{}`)
	})
	req := httptest.NewRequest(http.MethodGet, "/v1/models/"+model+"/dominators", nil)
	req.Header.Set("traceparent", "00-0123456789abcdef0123456789abcdef-0000000000000001-01")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if got := seen.Load(); got == nil || !strings.Contains(*got, "0123456789abcdef0123456789abcdef") {
		t.Fatalf("traceparent not propagated: %v", got)
	}
}

// TestRouterShedsBeforeForwarding: a request router-side admission
// sheds never reaches a replica, and its answer is the serving node's
// rejection: 429, a whole-second Retry-After, and the rejection body.
func TestRouterShedsBeforeForwarding(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	rt.cfg.Admission = admit.NewController(admit.Config{TenantRate: 0.001, TenantBurst: 1})
	if rec := doRoute(t, rt, http.MethodGet, "/v1/models/"+model+"/dominators", ""); rec.Code != http.StatusOK {
		t.Fatalf("first request: %d, want 200", rec.Code)
	}
	rec := doRoute(t, rt, http.MethodGet, "/v1/models/"+model+"/dominators", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", rec.Code)
	}
	if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", rec.Header().Get("Retry-After"))
	}
	var body struct {
		Error             string `json:"error"`
		Reason            string `json:"reason"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Reason != string(admit.ReasonTenantRateLimited) || body.Error != "overloaded: "+body.Reason ||
		strconv.Itoa(body.RetryAfterSeconds) != rec.Header().Get("Retry-After") {
		t.Fatalf("rejection body %+v (Retry-After %q)", body, rec.Header().Get("Retry-After"))
	}
	if hits := owners[0].hits.Load() + owners[1].hits.Load(); hits != 1 {
		t.Fatalf("replicas saw %d requests, want 1 (the shed one must not be forwarded)", hits)
	}
}

// TestRouterBodyBound pins the forwarding memory bound: request bodies
// are buffered (for safe failover replay) only up to MaxBodyBytes, and
// an oversized write is rejected up front instead of ballooning router
// memory.
func TestRouterBodyBound(t *testing.T) {
	backends := map[string]*scripted{"a": {}, "b": {}}
	peers := map[string]string{}
	for name, b := range backends {
		ts := httptest.NewServer(b)
		t.Cleanup(ts.Close)
		peers[name] = ts.URL
	}
	rt, err := NewRouter(RouterConfig{Peers: peers, Replicas: 2, MaxBodyBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}

	rec := doRoute(t, rt, http.MethodPut, "/v1/models/m", strings.Repeat("x", 2<<10))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d (%s), want 413", rec.Code, rec.Body)
	}
	for name, b := range backends {
		if b.hits.Load() != 0 {
			t.Errorf("backend %s reached %d times by a rejected oversized write", name, b.hits.Load())
		}
	}

	rec = doRoute(t, rt, http.MethodPut, "/v1/models/m", strings.Repeat("x", 1<<9))
	if rec.Code != http.StatusOK {
		t.Fatalf("in-bound body = %d, want 200", rec.Code)
	}
}

// TestRouterStreamsLargeResponse pins that replica responses are
// relayed without the router materialising them: a response larger
// than every internal buffering bound arrives intact.
func TestRouterStreamsLargeResponse(t *testing.T) {
	rt, model, owners := newScriptedRouter(t)
	const size = maxRetainedErrorBody * 4
	owners[0].respond(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Model-Generation", "3")
		io.CopyN(w, strings.NewReader(strings.Repeat("y", size)), size)
	})
	rec := doRoute(t, rt, http.MethodGet, "/v1/models/"+model+"/dominators", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("streamed read = %d, want 200", rec.Code)
	}
	if rec.Body.Len() != size {
		t.Fatalf("relayed %d bytes, want %d", rec.Body.Len(), size)
	}
	if g := rec.Header().Get("X-Model-Generation"); g != "3" {
		t.Errorf("generation header %q not relayed on streamed path", g)
	}
}
