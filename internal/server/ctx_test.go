package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/registry"
)

// TestQueryTimeoutReturns504 boots a server whose query deadline has
// effectively already passed and checks that the ctx-aware handlers —
// rules mining, batch classify, snapshot upload — abandon work with
// 504, while the non-blocking healthz stays 200.
func TestQueryTimeoutReturns504(t *testing.T) {
	m := testModel(t, 7, 12, 500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, WithQueryTimeout(time.Nanosecond))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	head := m.Table.AttrName(0)
	if code := getJSON(t, ts.URL+"/v1/models/demo/rules?head="+head, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("rules under expired deadline: want 504, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz must not be subject to meaningful work: got %d", code)
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats.Timeouts == 0 {
		t.Fatal("504 not counted in stats.timeouts")
	}
	if stats.Errors != 0 {
		t.Fatalf("deadline expiry wrongly counted as server error: errs=%d", stats.Errors)
	}

	// Admin writes are exempt from the query deadline: a hot swap of a
	// real model must succeed even under a microsecond query timeout.
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, testModel(t, 9, 10, 300), core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/fresh", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT under query timeout: want 200 (admin ops exempt), got %d", resp.StatusCode)
	}
}

// TestClientCancelReturns499 drives the rules handler with an
// already-canceled request context (the in-process equivalent of a
// client disconnect) and checks the distinct 499 mapping plus the
// canceled counter.
func TestClientCancelReturns499(t *testing.T) {
	m := testModel(t, 7, 12, 500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("demo", m); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	head := m.Table.AttrName(0)
	req := httptest.NewRequest(http.MethodGet, "/v1/models/demo/rules?head="+head, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled rules request: want 499, got %d (%s)", rec.Code, rec.Body)
	}

	// Batch classify takes the same mapping through PredictBatchContext.
	sv := reg.Acquire("demo")
	if sv == nil {
		t.Fatal("demo missing")
	}
	abc, err := sv.Engine().Classifier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dom := abc.Dominator()
	rows := make([][]int, 4)
	for i := range rows {
		row := make([]int, len(dom))
		for j := range row {
			row[j] = 1
		}
		rows[i] = row
	}
	target := m.Table.AttrName(abc.Targets()[0])
	sv.Release()
	body, err := json.Marshal(map[string]any{"target": target, "rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/models/demo/classify:batch", strings.NewReader(string(body))).WithContext(ctx)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled batch classify: want 499, got %d (%s)", rec.Code, rec.Body)
	}

	if got := srv.canceled.Load(); got < 2 {
		t.Fatalf("canceled counter: want >= 2, got %d", got)
	}
	if got := srv.errs.Load(); got != 0 {
		t.Fatalf("client cancellation wrongly counted as server error: errs=%d", got)
	}
}

// TestCanceledPutAbortsLoad checks the snapshot-upload path: a
// canceled request context aborts the expensive served-model
// preparation and nothing is published.
func TestCanceledPutAbortsLoad(t *testing.T) {
	reg := registry.New(registry.Options{})
	srv := New(reg)
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, testModel(t, 9, 10, 300), core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPut, "/v1/models/late", bytes.NewReader(snap)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("canceled PUT: want 499, got %d (%s)", rec.Code, rec.Body)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("canceled PUT published a model: %v", names)
	}
}

// TestNoGoroutineLeakAfterCanceledRequests is the goleak-style check:
// after a burst of canceled and timed-out requests over real
// connections, the server's goroutine count settles back to its
// pre-burst baseline and the server still answers.
func TestNoGoroutineLeakAfterCanceledRequests(t *testing.T) {
	m := testModel(t, 7, 12, 500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("demo", m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, WithQueryTimeout(50*time.Millisecond)).Handler())
	defer ts.Close()
	head := m.Table.AttrName(0)

	// Let the HTTP stack spin up its steady-state goroutines first.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/models/demo/rules?head="+head, nil)
		if err != nil {
			t.Fatal(err)
		}
		cancel() // client goes away before (or during) the request
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}

	// The server must still serve normal traffic...
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz after canceled burst: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/models/demo/rules?head="+head+"&top=3", nil); code != http.StatusOK {
		t.Fatalf("rules after canceled burst: %d", code)
	}
	// ...and shed every goroutine the canceled requests touched.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Idle keep-alive conns hold goroutines; drop them before counting.
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after canceled requests: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
