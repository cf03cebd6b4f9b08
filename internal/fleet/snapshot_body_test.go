package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/registry"
	"hypermine/internal/server"
)

// refuseRead fails the test if anything reads it: a body that must be
// refused on its declared length alone.
type refuseRead struct{ t *testing.T }

func (r refuseRead) Read([]byte) (int, error) {
	r.t.Error("body read although its declared length is over the bound")
	return 0, io.EOF
}

// soloNode is a node whose one peer "p" is served by peer, not
// started, so tests drive its handlers and pulls directly.
func soloNode(t *testing.T, peer http.HandlerFunc) (*Node, *registry.Registry) {
	t.Helper()
	ts := httptest.NewServer(peer)
	t.Cleanup(ts.Close)
	reg := registry.New(registry.Options{})
	n, err := NewNode(NodeConfig{Name: "a", Peers: map[string]string{"p": ts.URL}}, reg, server.New(reg))
	if err != nil {
		t.Fatal(err)
	}
	return n, reg
}

// TestPullSnapshotBounded: a pull decodes a peer's snapshot whether the
// peer declares its length or streams it chunked, and refuses a body
// over the replication bound: a declared one before reading it, a
// chunked one once the bound is passed. Nothing refused is loaded.
func TestPullSnapshotBounded(t *testing.T) {
	snap := snapshotBytes(t, 300)
	var mode string
	n, reg := soloNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Model-Generation", "3")
		switch mode {
		case "declared":
			w.Header().Set("Content-Length", strconv.Itoa(len(snap)))
			w.Write(snap)
		case "chunked":
			w.Write(snap[:len(snap)/2])
			w.(http.Flusher).Flush()
			w.Write(snap[len(snap)/2:])
		case "declared-oversize":
			w.Header().Set("Content-Length", strconv.FormatInt(maxReplicateBytes+1, 10))
			w.WriteHeader(http.StatusOK) // and no body: the pull must not wait for it
		}
	})
	ctx := context.Background()
	for _, mode = range []string{"declared", "chunked"} {
		if err := n.pullSnapshot(ctx, "p", mode); err != nil {
			t.Fatalf("%s pull: %v", mode, err)
		}
		if got := peekGen(reg, mode); got != 3 {
			t.Fatalf("%s pull serves generation %d, want 3", mode, got)
		}
	}

	var tooLarge *http.MaxBytesError
	mode = "declared-oversize"
	if err := n.pullSnapshot(ctx, "p", mode); !errors.As(err, &tooLarge) {
		t.Fatalf("pull of a body declaring %d bytes: %v, want a MaxBytesError", int64(maxReplicateBytes+1), err)
	}
	n.maxSnapshot = int64(len(snap) - 1)
	mode = "chunked"
	if err := n.pullSnapshot(ctx, "p", "over"); !errors.As(err, &tooLarge) {
		t.Fatalf("chunked pull over a %d-byte bound: %v, want a MaxBytesError", n.maxSnapshot, err)
	}
	for _, name := range []string{"declared-oversize", "over"} {
		if peekGen(reg, name) != 0 {
			t.Errorf("refused pull of %s loaded a model", name)
		}
	}
}

// TestReplicateBodyBounded: the push endpoint refuses a body declared
// over the bound without reading it, and a chunked one once it passes
// the bound, with a 400 either way.
func TestReplicateBodyBounded(t *testing.T) {
	n, reg := soloNode(t, func(http.ResponseWriter, *http.Request) {})
	push := func(body io.Reader, declared int64) int {
		req := httptest.NewRequest(http.MethodPut, "/fleet/replicate/m", body)
		req.ContentLength = declared
		req.Header.Set("X-Model-Generation", "1")
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	if code := push(refuseRead{t}, maxReplicateBytes+1); code != http.StatusBadRequest {
		t.Errorf("push declaring %d bytes: code %d, want 400", int64(maxReplicateBytes+1), code)
	}
	snap := snapshotBytes(t, 300)
	n.maxSnapshot = int64(len(snap) - 1)
	if code := push(bytes.NewReader(snap), -1); code != http.StatusBadRequest {
		t.Errorf("chunked push over a %d-byte bound: code %d, want 400", n.maxSnapshot, code)
	}
	if peekGen(reg, "m") != 0 {
		t.Error("a refused push loaded the model")
	}
	n.maxSnapshot = int64(len(snap))
	if code := push(bytes.NewReader(snap), int64(len(snap))); code != http.StatusOK {
		t.Errorf("push at the bound: code %d, want 200", code)
	}
}

// TestSnapshotEndpointDeclaresLength: the pull endpoint sends a
// snapshot with its exact Content-Length.
func TestSnapshotEndpointDeclaresLength(t *testing.T) {
	n, reg := soloNode(t, func(http.ResponseWriter, *http.Request) {})
	m, err := core.ReadSnapshot(bytes.NewReader(snapshotBytes(t, 300)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("m", m); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/snapshot/m", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d", rec.Code)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	if _, err := core.DecodeSnapshot(rec.Body.Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestRouterBodyLengths: the router reads a body of declared length
// at exactly that length and an undeclared one as it arrives, and
// answers 413 over MaxBodyBytes either way; what it forwards is the
// body it got.
func TestRouterBodyLengths(t *testing.T) {
	const bound = 1 << 10
	var got []byte
	backend := &scripted{}
	backend.respond(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(backend)
	t.Cleanup(ts.Close)
	rt, err := NewRouter(RouterConfig{Peers: map[string]string{"a": ts.URL}, Replicas: 1, MaxBodyBytes: bound})
	if err != nil {
		t.Fatal(err)
	}
	route := func(body string, declared bool) int {
		req := httptest.NewRequest(http.MethodPut, "/v1/models/m", strings.NewReader(body))
		if !declared {
			req.Body = io.NopCloser(struct{ io.Reader }{strings.NewReader(body)})
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	at := strings.Repeat("x", bound)
	for _, declared := range []bool{true, false} {
		got = nil
		if code := route(at, declared); code != http.StatusOK || string(got) != at {
			t.Errorf("declared %v: body at the bound: code %d, forwarded %d bytes", declared, code, len(got))
		}
		if code := route(at+"y", declared); code != http.StatusRequestEntityTooLarge {
			t.Errorf("declared %v: body over the bound: code %d, want 413", declared, code)
		}
	}
}
