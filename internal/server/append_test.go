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
	"hypermine/internal/core"
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

// TestAppendColumns: the column-major JSON shape appends.
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

// tinyAppender serves a 4-attribute, 50-row model as "tiny" and
// returns its handler and a reader of the served generation.
func tinyAppender(tb testing.TB, m *core.Model) (http.Handler, func() int64) {
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("tiny", m); err != nil {
		tb.Fatal(err)
	}
	h := New(reg, WithLogger(slog.New(slog.DiscardHandler))).Handler()
	return h, func() int64 {
		sv := reg.Peek("tiny")
		defer sv.Release()
		return sv.Generation()
	}
}

// serveAppend posts body to model's :append on h.
func serveAppend(h http.Handler, model, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/models/"+model+":append", strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAppendColumnsRejections: a columns body that is ragged, has a
// column count other than the model's (zero rows included), or holds
// a value outside 1..255 is a 400 and leaves the generation alone. A
// value outside 1..255 is refused before the model is looked up, the
// shape after: against an unknown model the first is a 400, the
// others 404.
func TestAppendColumnsRejections(t *testing.T) {
	h, generation := tinyAppender(t, benchfix.ModelWorkload(4, 50))
	for _, c := range []struct {
		name, body string
		ghost      int
	}{
		{"ragged", `{"columns":[[1,2],[2],[3,1],[1,1]]}`, http.StatusNotFound},
		{"too few", `{"columns":[[1],[2],[3]]}`, http.StatusNotFound},
		{"too many", `{"columns":[[1],[2],[3],[1],[2]]}`, http.StatusNotFound},
		{"too few, zero rows", `{"columns":[[],[],[]]}`, http.StatusNotFound},
		{"value 0", `{"columns":[[1,0],[2,2],[3,1],[1,1]]}`, http.StatusBadRequest},
		{"value 256", `{"columns":[[1,2],[2,2],[3,256],[1,1]]}`, http.StatusBadRequest},
		{"value above k", `{"columns":[[1,2],[2,2],[3,4],[1,1]]}`, http.StatusNotFound},
	} {
		before := generation()
		if rec := serveAppend(h, "tiny", "application/json", c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", c.name, rec.Code, rec.Body)
		}
		if after := generation(); after != before {
			t.Errorf("%s: generation moved %d -> %d", c.name, before, after)
		}
		if rec := serveAppend(h, "ghost", "application/json", c.body); rec.Code != c.ghost {
			t.Errorf("%s on an unknown model: %d %s, want %d", c.name, rec.Code, rec.Body, c.ghost)
		}
	}
	if rec := serveAppend(h, "tiny", "application/json", `{"columns":[[],[],[],[]]}`); rec.Code != http.StatusOK || generation() != 1 {
		t.Errorf("zero-row columns: %d %s at generation %d, want a 200 no-op", rec.Code, rec.Body, generation())
	}
}

// TestAppendShapesAgree: the same observations posted as JSON rows, as
// JSON columns and as text/csv to three servers over one base model
// publish models whose snapshots are byte-identical.
func TestAppendShapesAgree(t *testing.T) {
	m := benchfix.ModelWorkload(4, 50)
	rows := [][]int{{1, 2, 3, 1}, {3, 3, 3, 3}, {2, 1, 1, 2}, {1, 1, 2, 3}, {3, 2, 1, 1}}
	cols := make([][]int, 4)
	var csvBody strings.Builder
	csvBody.WriteString(strings.Join(m.Table.Attrs(), ",") + "\n")
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cols[j] = append(cols[j], v)
			cells[j] = strconv.Itoa(v)
		}
		csvBody.WriteString(strings.Join(cells, ","))
		if i%2 == 0 {
			csvBody.WriteString("\r\n")
		} else {
			csvBody.WriteString("\n")
		}
	}
	rowsJSON, _ := json.Marshal(map[string]any{"rows": rows})
	colsJSON, _ := json.Marshal(map[string]any{"columns": cols})
	var snaps [][]byte
	for _, b := range []struct{ contentType, body string }{
		{"application/json", string(rowsJSON)},
		{"application/json", string(colsJSON)},
		{"text/csv", csvBody.String()},
	} {
		reg := registry.New(registry.Options{})
		if _, err := reg.Load("tiny", m); err != nil {
			t.Fatal(err)
		}
		h := New(reg, WithLogger(slog.New(slog.DiscardHandler))).Handler()
		if rec := serveAppend(h, "tiny", b.contentType, b.body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", b.contentType, b.body, rec.Code, rec.Body)
		}
		sv := reg.Peek("tiny")
		var snap bytes.Buffer
		if err := core.WriteSnapshot(&snap, sv.Model(), core.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := sv.Model().Table.NumRows(); got != 50+len(rows) {
			t.Fatalf("%s %s: %d rows after the append, want %d", b.contentType, b.body, got, 50+len(rows))
		}
		sv.Release()
		snaps = append(snaps, snap.Bytes())
	}
	for i, name := range []string{"columns", "text/csv"} {
		if !bytes.Equal(snaps[i+1], snaps[0]) {
			t.Errorf("the %s append publishes a model whose snapshot differs from the rows append's", name)
		}
	}
}

// FuzzAppendBody posts arbitrary bytes to :append on a tiny served
// model, once as JSON and once as text/csv. Every answer must be 200,
// 400 or 413 (never a 5xx or a panic), and a rejected append must
// leave the served generation unchanged: appends never half-apply.
func FuzzAppendBody(f *testing.F) {
	m := benchfix.ModelWorkload(4, 50)
	h, generation := tinyAppender(f, m)
	f.Add([]byte(`{"rows":[[1,2,3,1],[3,3,3,3]]}`))
	f.Add([]byte(`{"columns":[[1,2],[2,2],[3,1],[1,1]]}`))
	f.Add([]byte(strings.Join(m.Table.Attrs(), ",") + "\n1,2,3,1\n2,2,2,2\n"))
	f.Add([]byte(`{"columns":[[1,2],[2],[3,1],[1,1]]}`))
	f.Add([]byte(`{"columns":[[1,2],[2,2],[3,1]]}`))
	f.Add([]byte(`{"columns":[[],[],[]]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ct := range []string{"application/json", "text/csv"} {
			before := generation()
			rec := serveAppend(h, "tiny", ct, string(body))
			switch rec.Code {
			case http.StatusOK:
				if ct == "application/json" && !json.Valid(body) {
					t.Fatalf("%s %q is not one JSON value, but answered 200: %s", ct, body, rec.Body.Bytes())
				}
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
