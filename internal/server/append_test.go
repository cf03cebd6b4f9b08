package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/registry"
)

// postBody POSTs raw bytes with an explicit content type and returns
// status, response body, and the X-Model-Generation header.
func postBody(t *testing.T, url, contentType string, body []byte) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header.Get("X-Model-Generation")
}

// TestAppendEndpoint: a JSON rows append returns 200, bumps the
// generation, and every model-scoped response afterwards carries the
// new generation in X-Model-Generation.
func TestAppendEndpoint(t *testing.T) {
	ts, _, m := serving(t)

	// Before the append: queries answer at generation 1.
	resp, err := http.Get(ts.URL + "/v1/models/demo/rules?head=A00&top=3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if g := resp.Header.Get("X-Model-Generation"); g != "1" {
		t.Fatalf("pre-append generation header = %q, want 1", g)
	}

	rows := [][]int{{1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3}}
	js, _ := json.Marshal(map[string]any{"rows": rows})
	code, raw, genHdr := postBody(t, ts.URL+"/v1/models/demo:append", "application/json", js)
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, raw)
	}
	var ar appendResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Swapped || ar.Generation != 2 || ar.Appended != 2 {
		t.Fatalf("append response: %+v", ar)
	}
	if ar.Rows != m.Table.NumRows()+2 {
		t.Fatalf("rows after append = %d, want %d", ar.Rows, m.Table.NumRows()+2)
	}
	if genHdr != "2" {
		t.Fatalf("append X-Model-Generation = %q, want 2", genHdr)
	}

	// After the append: queries and metadata answer at generation 2.
	resp, err = http.Get(ts.URL + "/v1/models/demo")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if g := resp.Header.Get("X-Model-Generation"); g != "2" {
		t.Fatalf("post-append generation header = %q, want 2", g)
	}

	// /stats carries the per-model generation.
	var st struct {
		Registry struct {
			Models []struct {
				Name       string `json:"name"`
				Generation int64  `json:"generation"`
				Rows       int    `json:"rows"`
			} `json:"models"`
		} `json:"registry"`
	}
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if len(st.Registry.Models) != 1 || st.Registry.Models[0].Generation != 2 {
		t.Fatalf("stats models: %+v", st.Registry.Models)
	}

	// /metrics exposes the append histogram and the generation gauge.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "hypermined_append_seconds") {
		t.Error("metrics missing hypermined_append_seconds")
	}
	if !strings.Contains(text, `hypermined_model_generation{model="demo"} 2`) {
		t.Error("metrics missing hypermined_model_generation for demo at 2")
	}
}

// TestAppendCSV: a text/csv body with the model's header appends, and
// a header mismatch is a 400 instead of silently transposed data.
func TestAppendCSV(t *testing.T) {
	ts, _, m := serving(t)
	attrs := m.Table.Attrs()

	var b strings.Builder
	b.WriteString(strings.Join(attrs, ","))
	b.WriteString("\n")
	for i := 0; i < 3; i++ {
		cells := make([]string, len(attrs))
		for j := range cells {
			cells[j] = strconv.Itoa(1 + (i+j)%3)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteString("\n")
	}
	code, raw, _ := postBody(t, ts.URL+"/v1/models/demo:append", "text/csv", []byte(b.String()))
	if code != http.StatusOK {
		t.Fatalf("csv append: %d %s", code, raw)
	}
	var ar appendResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 3 || !ar.Swapped {
		t.Fatalf("csv append response: %+v", ar)
	}

	bad := "wrong,header\n1,2\n"
	code, raw, _ = postBody(t, ts.URL+"/v1/models/demo:append", "text/csv", []byte(bad))
	if code != http.StatusBadRequest {
		t.Fatalf("mismatched csv header: %d %s", code, raw)
	}
}

// TestAppendColumns: the column-major JSON shape appends through the
// raw path.
func TestAppendColumns(t *testing.T) {
	ts, _, m := serving(t)
	n := m.Table.NumAttrs()
	cols := make([][]int, n)
	for j := range cols {
		cols[j] = []int{1 + j%3, 1 + (j+1)%3}
	}
	js, _ := json.Marshal(map[string]any{"columns": cols})
	code, raw, _ := postBody(t, ts.URL+"/v1/models/demo:append", "application/json", js)
	if code != http.StatusOK {
		t.Fatalf("columns append: %d %s", code, raw)
	}
	var ar appendResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 2 || ar.Rows != m.Table.NumRows()+2 {
		t.Fatalf("columns append response: %+v", ar)
	}
}

// TestAppendRejections pins the error statuses: malformed body,
// both-shapes body, out-of-range value, wrong width, unknown model,
// and a no-op empty append.
func TestAppendRejections(t *testing.T) {
	ts, _, m := serving(t)
	url := ts.URL + "/v1/models/demo:append"

	if code, raw, _ := postBody(t, url, "application/json", []byte("{nope")); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d %s", code, raw)
	}
	js, _ := json.Marshal(map[string]any{"rows": [][]int{{1}}, "columns": [][]int{{1}}})
	if code, raw, _ := postBody(t, url, "application/json", js); code != http.StatusBadRequest {
		t.Fatalf("both shapes: %d %s", code, raw)
	}
	js, _ = json.Marshal(map[string]any{"rows": [][]int{{0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}})
	if code, raw, _ := postBody(t, url, "application/json", js); code != http.StatusBadRequest {
		t.Fatalf("out-of-range value: %d %s", code, raw)
	}
	js, _ = json.Marshal(map[string]any{"rows": [][]int{{1, 2}}})
	if code, raw, _ := postBody(t, url, "application/json", js); code != http.StatusBadRequest {
		t.Fatalf("wrong width: %d %s", code, raw)
	}
	js, _ = json.Marshal(map[string]any{"rows": [][]int{}})
	code, raw, genHdr := postBody(t, url, "application/json", js)
	if code != http.StatusOK {
		t.Fatalf("empty no-op append: %d %s", code, raw)
	}
	var ar appendResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Swapped || ar.Generation != 1 || genHdr != "1" {
		t.Fatalf("no-op append: %+v header %q", ar, genHdr)
	}
	if ar.Rows != m.Table.NumRows() {
		t.Fatalf("no-op rows = %d, want %d", ar.Rows, m.Table.NumRows())
	}

	js, _ = json.Marshal(map[string]any{"rows": [][]int{{1, 1, 1}}})
	if code, raw, _ := postBody(t, ts.URL+"/v1/models/ghost:append", "application/json", js); code != http.StatusNotFound {
		t.Fatalf("unknown model: %d %s", code, raw)
	}
}

// FuzzAppendBody posts arbitrary bytes to :append on a tiny served
// model, once as JSON and once as text/csv. Every answer must be 200,
// 400 or 413 (never a 5xx or a panic), and a rejected append must
// leave the served generation unchanged: appends never half-apply.
func FuzzAppendBody(f *testing.F) {
	m := benchfix.ModelWorkload(4, 50)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("tiny", m); err != nil {
		f.Fatal(err)
	}
	h := New(reg, WithLogger(slog.New(slog.DiscardHandler))).Handler()
	generation := func() int64 {
		sv := reg.Peek("tiny")
		defer sv.Release()
		return sv.Generation()
	}
	f.Add([]byte(`{"rows":[[1,2,3,1],[3,3,3,3]]}`))
	f.Add([]byte(`{"columns":[[1,2],[2,2],[3,1],[1,1]]}`))
	f.Add([]byte(strings.Join(m.Table.Attrs(), ",") + "\n1,2,3,1\n2,2,2,2\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ct := range []string{"application/json", "text/csv"} {
			before := generation()
			req := httptest.NewRequest(http.MethodPost, "/v1/models/tiny:append", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK:
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
				if after := generation(); after != before {
					t.Fatalf("%s %q: rejected with %d but generation moved %d -> %d", ct, body, rec.Code, before, after)
				}
			default:
				t.Fatalf("%s %q: status %d: %s", ct, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
