package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"hypermine/internal/engine"
	"hypermine/internal/registry"
	"hypermine/internal/telemetry"
	"hypermine/internal/testutil"
)

// reusedBody is a request body that a test rewinds between runs, so
// the allocation count of a handler call excludes the test's own body.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// reusedWriter is a ResponseWriter that keeps its header map and body
// buffer across runs, so the count covers the handler alone.
type reusedWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *reusedWriter) Header() http.Header { return w.h }

func (w *reusedWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *reusedWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// allocFixture is one warm server on the 12x1500 fixture with tracing
// on (cold-sampled), as hypermined serves, plus the names a read needs.
type allocFixture struct {
	h       http.Handler
	target  string
	values  map[string]int
	row     []int
	a, b    string
	headKey string
}

func newAllocFixture(t *testing.T) *allocFixture {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	m := testModel(t, 7, 12, 1500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("bench", m); err != nil {
		t.Fatal(err)
	}
	sv := reg.Acquire("bench")
	abc, err := sv.Classifier()
	if err != nil {
		t.Fatal(err)
	}
	f := &allocFixture{values: map[string]int{}, a: m.H.VertexName(0), b: m.H.VertexName(1), headKey: m.H.VertexName(5)}
	for j, a := range abc.Dominator() {
		f.values[m.H.VertexName(a)] = 1 + j%3
		f.row = append(f.row, 1+(j+1)%3)
	}
	f.target = m.H.VertexName(sv.Targets()[0])
	sv.Release()
	f.h = New(reg, WithLogger(slog.New(slog.DiscardHandler)),
		WithTracer(telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: -1}))).Handler()
	return f
}

// allocs warms one read and returns its steady-state allocations per
// handler call. The warm-up builds every artifact the read touches and
// fills the server's pools.
func (f *allocFixture) allocs(t *testing.T, method, path string, body any) float64 {
	t.Helper()
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rb := &reusedBody{}
	req := httptest.NewRequest(method, path, nil)
	req.Body = rb
	w := &reusedWriter{h: http.Header{}}
	run := func() {
		rb.Reset(raw)
		clear(w.h)
		w.code = 0
		w.body.Reset()
		f.h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, w.code, w.body.Bytes())
		}
	}
	for range 10 {
		run()
	}
	return testing.AllocsPerRun(200, run)
}

// pinAllocs fails when a read allocates more than ceiling per call.
// Each ceiling is the measured count plus a little slack, so a change
// that adds per-request work to a read fails here first.
func pinAllocs(t *testing.T, what string, got, ceiling float64) {
	t.Helper()
	t.Logf("%s: %.0f allocs per call (ceiling %.0f)", what, got, ceiling)
	if got > ceiling {
		t.Errorf("%s allocates %.0f per call, want <= %.0f", what, got, ceiling)
	}
}

func TestHandlerAllocsClassify(t *testing.T) {
	f := newAllocFixture(t)
	got := f.allocs(t, http.MethodPost, "/v1/models/bench/classify",
		engine.ClassifyRequest{Target: f.target, Values: f.values})
	pinAllocs(t, "classify", got, 20)
}

func TestHandlerAllocsClassifyBatch(t *testing.T) {
	f := newAllocFixture(t)
	rows := make([][]int, 16)
	for i := range rows {
		rows[i] = f.row
	}
	got := f.allocs(t, http.MethodPost, "/v1/models/bench/classify:batch",
		engine.ClassifyRequest{Target: f.target, Rows: rows})
	pinAllocs(t, "classify:batch", got, 19)
}

func TestHandlerAllocsSimilarPair(t *testing.T) {
	f := newAllocFixture(t)
	got := f.allocs(t, http.MethodGet, "/v1/models/bench/similar?a="+f.a+"&b="+f.b, nil)
	pinAllocs(t, "similar pair", got, 10)
}

func TestHandlerAllocsSimilarTop(t *testing.T) {
	f := newAllocFixture(t)
	got := f.allocs(t, http.MethodGet, "/v1/models/bench/similar?a="+f.a+"&top=5", nil)
	pinAllocs(t, "similar top", got, 11)
}

func TestHandlerAllocsRules(t *testing.T) {
	f := newAllocFixture(t)
	got := f.allocs(t, http.MethodGet, "/v1/models/bench/rules?head="+f.headKey+"&top=5", nil)
	pinAllocs(t, "rules", got, 11)
}

func TestHandlerAllocsDominators(t *testing.T) {
	f := newAllocFixture(t)
	got := f.allocs(t, http.MethodGet, "/v1/models/bench/dominators", nil)
	pinAllocs(t, "dominators", got, 8)
}

func TestHandlerAllocsQuery(t *testing.T) {
	f := newAllocFixture(t)
	got := f.allocs(t, http.MethodPost, "/v1/models/bench:query", engine.Request{Batch: []engine.Request{
		{Classify: &engine.ClassifyRequest{Target: f.target, Values: f.values}},
		{Similar: &engine.SimilarRequest{A: f.a, B: f.b}},
		{Rules: &engine.RulesRequest{Head: f.headKey, Top: 5}},
		{Dominators: &engine.DominatorsRequest{}},
	}})
	pinAllocs(t, ":query", got, 58)
}
