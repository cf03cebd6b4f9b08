package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/engine"
	"hypermine/internal/registry"
)

// TestTrailingBytesRejected: every JSON body endpoint takes exactly one
// value. Whitespace may follow it; anything else is a 400, where the
// decoder used to stop after the first value and answer 200. Two
// concatenated :append objects once acked only the first batch, so a
// client believed rows had landed that were dropped; now the append is
// refused whole and the generation does not move.
func TestTrailingBytesRejected(t *testing.T) {
	ts, reg, m := serving(t)
	sv := reg.Acquire("demo")
	abc, err := sv.Engine().Classifier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	target := m.H.VertexName(abc.Targets()[0])
	sv.Release()
	values := map[string]int{}
	row := make([]int, len(abc.Dominator()))
	for j, a := range abc.Dominator() {
		values[m.H.VertexName(a)] = 1
		row[j] = 1
	}
	appendRow := make([]int, m.Table.NumAttrs())
	for j := range appendRow {
		appendRow[j] = 1 + j%3
	}
	generation := func() int64 {
		sv := reg.Peek("demo")
		defer sv.Release()
		return sv.Generation()
	}
	classify := engine.ClassifyRequest{Target: target, Values: values}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"classify", "/v1/models/demo/classify", classify},
		{"classify-batch", "/v1/models/demo/classify:batch", engine.ClassifyRequest{Target: target, Rows: [][]int{row}}},
		{"query", "/v1/models/demo:query", engine.Request{Classify: &classify}},
		{"append", "/v1/models/demo:append", appendRequest{Rows: [][]int{appendRow}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			valid, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range [][]byte{
				append(append([]byte{}, valid...), " junk"...),
				append(append([]byte{}, valid...), valid...),
				append(append([]byte{}, valid...), "\n{}"...),
			} {
				before := generation()
				if code, raw, _ := postBody(t, ts.URL+tc.path, "application/json", bad); code != http.StatusBadRequest {
					t.Errorf("%q: status %d, want 400: %s", bad, code, raw)
				}
				if after := generation(); after != before {
					t.Errorf("%q: refused, but the generation moved %d -> %d", bad, before, after)
				}
			}
			spaced := append(append([]byte{}, valid...), " \n\t\r\n"...)
			if code, raw, _ := postBody(t, ts.URL+tc.path, "application/json", spaced); code != http.StatusOK {
				t.Errorf("trailing whitespace: status %d, want 200: %s", code, raw)
			}
		})
	}
}

// FuzzPooledClassifyBodies sends two /classify or /classify:batch
// bodies back to back to one long-lived server, whose pools also carry
// every earlier input. The second answer must be byte-identical to the
// answer a fresh server gives that body alone: no Values key and no
// Rows value of one request may leak into the next.
func FuzzPooledClassifyBodies(f *testing.F) {
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("tiny", benchfix.ModelWorkload(4, 50)); err != nil {
		f.Fatal(err)
	}
	quiet := WithLogger(slog.New(slog.DiscardHandler))
	shared := New(reg, quiet).Handler()
	post := func(h http.Handler, batch bool, body []byte) (int, []byte) {
		path := "/v1/models/tiny/classify"
		if batch {
			path += ":batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	// The tiny model's dominator is {Aaa, Aba}; its targets {Aca, Ada}.
	// A stale "Aaa" would answer the second body instead of a 400.
	f.Add([]byte(`{"target":"Aca","values":{"Aaa":1,"Aba":2,"Zzz":3}}`), false, []byte(`{"target":"Aca","values":{"Aba":2}}`), false)
	// Stale rows or a stale third row would change the batch answer.
	f.Add([]byte(`{"target":"Ada","rows":[[1,2],[3,3],[2,1]]}`), true, []byte(`{"target":"Ada","rows":[[2,2],[1]]}`), true)
	f.Add([]byte(`{"target":"Ada","rows":[[1,2],[3,3]]}`), true, []byte(`{"target":"Ada"}`), true)
	f.Add([]byte(`{"target":"Ada","rows":[[1,2]]}`), true, []byte(`{"target":"Ada","rows":[]}`), true)
	f.Add([]byte(`{"target":"Aca","values":{"Aaa":1,"Aba":2}}`), false, []byte(`{"target":"Aca","rows":[[1,2]],"values":{"Aaa":3,"Aba":3}}`), false)
	// Trailing bytes: a body that is not exactly one value is a 400,
	// and must leave nothing behind in the pools.
	f.Add([]byte(`{"target":"Aca","values":{"Aaa":1,"Aba":2}} junk`), false, []byte(`{"target":"Aca","values":{"Aaa":1,"Aba":2}}{"target":"Aca"}`), false)
	f.Add([]byte(`{"target":"Ada","rows":[[1,2],[3,3]]}{"rows":[[1]]}`), true, []byte(`{"target":"Ada","rows":[[2,2]]} junk`), true)
	f.Fuzz(func(t *testing.T, first []byte, firstBatch bool, second []byte, secondBatch bool) {
		post(shared, firstBatch, first)
		code, got := post(shared, secondBatch, second)
		wantCode, want := post(New(reg, quiet).Handler(), secondBatch, second)
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("after %q, %q answered %d %s; a fresh server answers %d %s",
				first, second, code, strings.TrimSpace(string(got)), wantCode, strings.TrimSpace(string(want)))
		}
		if !json.Valid(second) && code != http.StatusBadRequest {
			t.Fatalf("%q is not one JSON value, but answered %d: %s", second, code, got)
		}
	})
}
