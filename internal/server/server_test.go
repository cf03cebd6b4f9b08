package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/registry"
	"hypermine/internal/similarity"
	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

func testModel(t testing.TB, seed int64, nAttrs, rows int) *core.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]string, nAttrs)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("A%02d", j)
	}
	tb, err := table.New(attrs, 3)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]table.Value, nAttrs)
	for i := 0; i < rows; i++ {
		base := table.Value(1 + rng.Intn(3))
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = table.Value(1 + rng.Intn(3))
			} else {
				row[j] = base
			}
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.Build(tb, core.Config{GammaEdge: 1.0, GammaPair: 1.0, Candidates: core.EdgeSeeded})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serving boots an httptest server with one model loaded as "demo".
func serving(t *testing.T) (*httptest.Server, *registry.Registry, *core.Model) {
	t.Helper()
	m := testModel(t, 7, 12, 500)
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("demo", m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg).Handler())
	t.Cleanup(ts.Close)
	return ts, reg, m
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: %v (%s)", url, err, raw)
		}
	}
	return resp.StatusCode
}

// The legacy wire shapes, pinned from the client's point of view: the
// engine-backed handlers must keep serving exactly these fields.
type classifyRequest struct {
	Target string         `json:"target"`
	Values map[string]int `json:"values"`
}

type classifyResponse struct {
	Target     string  `json:"target"`
	Value      int     `json:"value"`
	Confidence float64 `json:"confidence"`
}

type classifyBatchRequest struct {
	Target string  `json:"target"`
	Rows   [][]int `json:"rows"`
}

type classifyBatchResponse struct {
	Target      string    `json:"target"`
	Values      []int     `json:"values"`
	Confidences []float64 `json:"confidences"`
}

type similarPair struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	InSim    float64 `json:"in_sim"`
	OutSim   float64 `json:"out_sim"`
	Distance float64 `json:"distance"`
}

type neighbor struct {
	Name     string  `json:"name"`
	Distance float64 `json:"distance"`
}

type ruleResponse struct {
	Rule       string  `json:"rule"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
}

func TestHealthzAndStats(t *testing.T) {
	ts, _, _ := serving(t)
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: code %d body %v", code, health)
	}
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats: code %d", code)
	}
	if len(stats.Registry.Models) != 1 || stats.Registry.Models[0].Name != "demo" {
		t.Fatalf("stats registry: %+v", stats.Registry)
	}
}

func TestModelListAndDetail(t *testing.T) {
	ts, _, m := serving(t)
	var list struct {
		Models []modelSummary `json:"models"`
	}
	if code := getJSON(t, ts.URL+"/v1/models", &list); code != 200 {
		t.Fatalf("list: code %d", code)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "demo" || list.Models[0].Edges != m.H.NumEdges() {
		t.Fatalf("list: %+v", list)
	}
	if !list.Models[0].Classify {
		t.Fatal("demo model should classify")
	}

	var det modelDetail
	if code := getJSON(t, ts.URL+"/v1/models/demo", &det); code != 200 {
		t.Fatalf("detail: code %d", code)
	}
	if len(det.Dominator) == 0 || len(det.Targets) == 0 {
		t.Fatalf("detail missing dominator/targets: %+v", det)
	}
	if code := getJSON(t, ts.URL+"/v1/models/nope", nil); code != 404 {
		t.Fatalf("unknown model: code %d", code)
	}
}

// TestClassifyMatchesDirectPredictor: the HTTP answer must equal a
// direct in-process prediction through the same model.
func TestClassifyMatchesDirectPredictor(t *testing.T) {
	ts, reg, m := serving(t)
	sv := reg.Acquire("demo")
	defer sv.Release()
	abc, err := sv.Engine().Classifier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dom := abc.Dominator()
	targets := abc.Targets()
	p := abc.NewPredictor()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 25; i++ {
		domVals := make([]table.Value, len(dom))
		values := map[string]int{}
		for j, a := range dom {
			v := 1 + rng.Intn(3)
			domVals[j] = table.Value(v)
			values[m.H.VertexName(a)] = v
		}
		target := targets[i%len(targets)]
		wantV, wantConf, err := p.Predict(domVals, target)
		if err != nil {
			t.Fatal(err)
		}
		var got classifyResponse
		code := postJSON(t, ts.URL+"/v1/models/demo/classify",
			classifyRequest{Target: m.H.VertexName(target), Values: values}, &got)
		if code != 200 {
			t.Fatalf("classify: code %d", code)
		}
		if got.Value != int(wantV) || got.Confidence != wantConf {
			t.Fatalf("query %d: got (%d, %v), want (%d, %v)", i, got.Value, got.Confidence, wantV, wantConf)
		}
	}
}

func TestClassifyBatchMatchesSerial(t *testing.T) {
	ts, reg, m := serving(t)
	sv := reg.Acquire("demo")
	defer sv.Release()
	abc, _ := sv.Engine().Classifier(context.Background())
	dom := abc.Dominator()
	target := abc.Targets()[0]
	rng := rand.New(rand.NewSource(6))
	rows := make([][]int, 40)
	flat := make([]table.Value, 0, len(rows)*len(dom))
	for i := range rows {
		rows[i] = make([]int, len(dom))
		for j := range rows[i] {
			rows[i][j] = 1 + rng.Intn(3)
			flat = append(flat, table.Value(rows[i][j]))
		}
	}
	want := make([]table.Value, len(rows))
	wantConf := make([]float64, len(rows))
	if err := abc.NewPredictor().PredictBatch(flat, target, want, wantConf); err != nil {
		t.Fatal(err)
	}
	var got classifyBatchResponse
	code := postJSON(t, ts.URL+"/v1/models/demo/classify:batch",
		classifyBatchRequest{Target: m.H.VertexName(target), Rows: rows}, &got)
	if code != 200 {
		t.Fatalf("batch: code %d", code)
	}
	for i := range want {
		if got.Values[i] != int(want[i]) || got.Confidences[i] != wantConf[i] {
			t.Fatalf("row %d: got (%d, %v), want (%d, %v)", i, got.Values[i], got.Confidences[i], want[i], wantConf[i])
		}
	}

	// Malformed rows are rejected.
	if code := postJSON(t, ts.URL+"/v1/models/demo/classify:batch",
		classifyBatchRequest{Target: m.H.VertexName(target), Rows: [][]int{{1}}}, nil); code != 400 {
		t.Fatalf("short row: code %d", code)
	}
}

func TestSimilarEndpoints(t *testing.T) {
	ts, _, m := serving(t)
	a, b := m.H.VertexName(0), m.H.VertexName(1)
	var pair similarPair
	if code := getJSON(t, fmt.Sprintf("%s/v1/models/demo/similar?a=%s&b=%s", ts.URL, a, b), &pair); code != 200 {
		t.Fatalf("pair: code %d", code)
	}
	if want := similarity.InSim(m.H, 0, 1); pair.InSim != want {
		t.Fatalf("in_sim %v, want %v", pair.InSim, want)
	}
	if want := similarity.OutSim(m.H, 0, 1); pair.OutSim != want {
		t.Fatalf("out_sim %v, want %v", pair.OutSim, want)
	}
	if want := similarity.Distance(m.H, 0, 1); pair.Distance != want {
		t.Fatalf("distance %v, want %v", pair.Distance, want)
	}

	var ranking struct {
		Neighbors []neighbor `json:"neighbors"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/models/demo/similar?a=%s&top=3", ts.URL, a), &ranking); code != 200 {
		t.Fatalf("ranking: code %d", code)
	}
	if len(ranking.Neighbors) != 3 {
		t.Fatalf("ranking size %d", len(ranking.Neighbors))
	}
	for i := 1; i < len(ranking.Neighbors); i++ {
		if ranking.Neighbors[i-1].Distance > ranking.Neighbors[i].Distance {
			t.Fatalf("ranking not sorted: %+v", ranking.Neighbors)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/models/demo/similar?a=zzz", nil); code != 400 {
		t.Fatalf("unknown attr: code %d", code)
	}
}

func TestRulesEndpoint(t *testing.T) {
	ts, _, m := serving(t)
	head := m.H.VertexName(5)
	var out struct {
		Rules []ruleResponse `json:"rules"`
	}
	code := getJSON(t, fmt.Sprintf("%s/v1/models/demo/rules?head=%s&top=5", ts.URL, head), &out)
	if code != 200 {
		t.Fatalf("rules: code %d", code)
	}
	if len(out.Rules) == 0 || len(out.Rules) > 5 {
		t.Fatalf("rules count %d", len(out.Rules))
	}
	if !strings.Contains(out.Rules[0].Rule, "=>") {
		t.Fatalf("unformatted rule %q", out.Rules[0].Rule)
	}
	for _, bad := range []string{"min_support=NaN", "min_confidence=1.5"} {
		if code := getJSON(t, ts.URL+"/v1/models/demo/rules?head="+head+"&"+bad, nil); code != 400 {
			t.Fatalf("rules with %s: code %d, want 400", bad, code)
		}
	}
}

// TestPutSnapshotHotSwap uploads snapshots over HTTP: a fresh model,
// then a hot swap, then a row-less snapshot whose classify must 409.
func TestPutSnapshotHotSwap(t *testing.T) {
	ts, _, m := serving(t)
	other := testModel(t, 8, 10, 400)
	put := func(name string, m *core.Model, opt core.SaveOptions) putResponse {
		var buf bytes.Buffer
		if err := core.WriteSnapshot(&buf, m, opt); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/"+name, &buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("PUT %s: code %d: %s", name, resp.StatusCode, raw)
		}
		var pr putResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	if pr := put("second", other, core.SaveOptions{}); pr.Swapped {
		t.Fatalf("fresh PUT reported swap: %+v", pr)
	}
	if pr := put("demo", m, core.SaveOptions{}); !pr.Swapped {
		t.Fatalf("reload PUT did not report swap: %+v", pr)
	}

	pr := put("slim", m, core.SaveOptions{OmitRows: true})
	if pr.Rows != 0 {
		t.Fatalf("row-less PUT kept rows: %+v", pr)
	}
	code := postJSON(t, ts.URL+"/v1/models/slim/classify",
		classifyRequest{Target: "A05", Values: map[string]int{}}, nil)
	if code != http.StatusConflict {
		t.Fatalf("classify on row-less model: code %d, want 409", code)
	}
	// Graph queries on the row-less model still work.
	if code := getJSON(t, ts.URL+"/v1/models/slim/dominators", nil); code != 200 {
		t.Fatalf("dominators on row-less model: code %d", code)
	}

	// Corrupt snapshot rejected.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/bad", strings.NewReader("not a snapshot"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("corrupt PUT: code %d", resp.StatusCode)
	}
}

// TestPutSnapshotBadConfig: a snapshot whose config no build accepts
// is a 400, and the model it would have replaced keeps serving.
func TestPutSnapshotBadConfig(t *testing.T) {
	ts, _, m := serving(t)
	for _, edit := range []func(*core.Config){
		func(c *core.Config) { c.GammaEdge = math.NaN() },
		func(c *core.Config) { c.MaxTailSize = 9 },
	} {
		bad := *m
		edit(&bad.Config)
		var buf bytes.Buffer
		if err := core.WriteSnapshot(&buf, &bad, core.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/demo", &buf)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT with config %+v: code %d (%s), want 400", bad.Config, resp.StatusCode, raw)
		}
	}
	var detail struct {
		Generation int `json:"generation"`
	}
	if code := getJSON(t, ts.URL+"/v1/models/demo", &detail); code != 200 || detail.Generation != 1 {
		t.Fatalf("after rejected PUTs: code %d, generation %d, want 200 at generation 1", code, detail.Generation)
	}
}

func TestDeleteModel(t *testing.T) {
	ts, _, _ := serving(t)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/demo", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete: code %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/models/demo", nil); code != 404 {
		t.Fatalf("after delete: code %d", code)
	}
}

// TestClassifyAllocations pins the steady-state predict path (borrow,
// resolve, predict, return — everything but HTTP/JSON) to zero heap
// allocations beyond the decoded request itself.
func TestClassifyAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	_, reg, _ := serving(t)
	sv := reg.Acquire("demo")
	defer sv.Release()
	abc, err := sv.Engine().Classifier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dom := abc.Dominator()
	domVals := make([]table.Value, len(dom))
	for j := range domVals {
		domVals[j] = table.Value(1 + j%3)
	}
	target := abc.Targets()[0]
	// Warm the pool.
	p, _ := sv.Engine().BorrowPredictor(context.Background())
	sv.Engine().ReturnPredictor(context.Background(), p)
	allocs := testing.AllocsPerRun(200, func() {
		p, err := sv.Engine().BorrowPredictor(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Predict(domVals, target); err != nil {
			t.Fatal(err)
		}
		sv.Engine().ReturnPredictor(context.Background(), p)
	})
	if allocs > 0 {
		t.Errorf("steady-state predict path allocates %.1f/op, want 0", allocs)
	}
}

// TestQueryBatchEndpoint: a mixed batch through /v1/models/{name}:query
// must answer every sub-request exactly as the dedicated endpoints do.
func TestQueryBatchEndpoint(t *testing.T) {
	ts, reg, m := serving(t)
	sv := reg.Acquire("demo")
	abc, err := sv.Engine().Classifier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dom := abc.Dominator()
	target := m.H.VertexName(abc.Targets()[0])
	sv.Release()

	values := map[string]int{}
	for j, a := range dom {
		values[m.H.VertexName(a)] = 1 + j%3
	}
	a, b := m.H.VertexName(0), m.H.VertexName(1)
	head := m.H.VertexName(5)
	batch := map[string]any{
		"batch": []map[string]any{
			{"classify": map[string]any{"target": target, "values": values}},
			{"similar": map[string]any{"a": a, "b": b}},
			{"similar": map[string]any{"a": a, "top": 3}},
			{"dominators": map[string]any{}},
			{"rules": map[string]any{"head": head, "top": 5}},
			{"classify": map[string]any{"target": "NOPE", "values": values}}, // fails alone
		},
	}
	var got struct {
		Batch []struct {
			Classify   *classifyResponse `json:"classify"`
			Similar    *json.RawMessage  `json:"similar"`
			Dominators *json.RawMessage  `json:"dominators"`
			Rules      *json.RawMessage  `json:"rules"`
			Error      *struct {
				Kind    string `json:"kind"`
				Message string `json:"message"`
			} `json:"error"`
		} `json:"batch"`
	}
	if code := postJSON(t, ts.URL+"/v1/models/demo:query", batch, &got); code != 200 {
		t.Fatalf(":query batch: code %d", code)
	}
	if len(got.Batch) != 6 {
		t.Fatalf("batch answered %d items, want 6", len(got.Batch))
	}

	// Item 0 equals the dedicated classify endpoint byte-for-byte on
	// its fields.
	var single classifyResponse
	if code := postJSON(t, ts.URL+"/v1/models/demo/classify",
		classifyRequest{Target: target, Values: values}, &single); code != 200 {
		t.Fatalf("classify: code %d", code)
	}
	if got.Batch[0].Classify == nil || *got.Batch[0].Classify != single {
		t.Fatalf("batch classify %+v != endpoint %+v", got.Batch[0].Classify, single)
	}

	// Item 1 equals the pair endpoint.
	var pair, batchPair similarPair
	if code := getJSON(t, fmt.Sprintf("%s/v1/models/demo/similar?a=%s&b=%s", ts.URL, a, b), &pair); code != 200 {
		t.Fatal("pair endpoint failed")
	}
	if err := json.Unmarshal(*got.Batch[1].Similar, &batchPair); err != nil {
		t.Fatal(err)
	}
	if batchPair != pair {
		t.Fatalf("batch pair %+v != endpoint %+v", batchPair, pair)
	}

	if got.Batch[2].Similar == nil || got.Batch[3].Dominators == nil || got.Batch[4].Rules == nil {
		t.Fatalf("batch items missing payloads: %+v", got.Batch)
	}
	if got.Batch[5].Error == nil || got.Batch[5].Error.Kind != "bad_request" {
		t.Fatalf("bad sub-request did not fail alone: %+v", got.Batch[5])
	}

	// Single (non-batch) typed requests work through :query too.
	var one struct {
		Dominators *json.RawMessage `json:"dominators"`
	}
	if code := postJSON(t, ts.URL+"/v1/models/demo:query",
		map[string]any{"dominators": map[string]any{}}, &one); code != 200 || one.Dominators == nil {
		t.Fatalf(":query single failed")
	}

	// Malformed shapes are rejected, not routed.
	if code := postJSON(t, ts.URL+"/v1/models/demo:query", map[string]any{}, nil); code != 400 {
		t.Fatalf("empty request: want 400")
	}
	if code := postJSON(t, ts.URL+"/v1/models/nope:query",
		map[string]any{"dominators": map[string]any{}}, nil); code != 404 {
		t.Fatalf("unknown model: want 404")
	}
	if code := postJSON(t, ts.URL+"/v1/models/demo:nope", map[string]any{}, nil); code != 404 {
		t.Fatalf("bad suffix: want 404")
	}
}

// TestClassifyRejectsNonTargets: asking to classify a dominator member
// or unknown attribute is a 400 client error, never a 500.
func TestClassifyRejectsNonTargets(t *testing.T) {
	ts, reg, m := serving(t)
	sv := reg.Acquire("demo")
	abc, _ := sv.Engine().Classifier(context.Background())
	domAttr := m.H.VertexName(abc.Dominator()[0])
	values := map[string]int{}
	for _, a := range abc.Dominator() {
		values[m.H.VertexName(a)] = 1
	}
	sv.Release()
	for _, target := range []string{domAttr, "NOPE"} {
		code := postJSON(t, ts.URL+"/v1/models/demo/classify",
			classifyRequest{Target: target, Values: values}, nil)
		if code != 400 {
			t.Errorf("classify target %q: code %d, want 400", target, code)
		}
		code = postJSON(t, ts.URL+"/v1/models/demo/classify:batch",
			classifyBatchRequest{Target: target, Rows: [][]int{{1, 1}}}, nil)
		if code != 400 {
			t.Errorf("batch target %q: code %d, want 400", target, code)
		}
	}
}

// TestBodiesCappedAtMaxQueryBytes: every JSON body endpoint answers a
// 4xx to a body one byte over maxQueryBytes, even one whose JSON value
// would decode fine uncapped (leading whitespace pads it), and the next
// normal request still succeeds.
func TestBodiesCappedAtMaxQueryBytes(t *testing.T) {
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
	classify := engine.ClassifyRequest{Target: target, Values: values}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"classify", "/v1/models/demo/classify", classify},
		{"classify-batch", "/v1/models/demo/classify:batch", engine.ClassifyRequest{Target: target, Rows: [][]int{row}}},
		{"query", "/v1/models/demo:query", engine.Request{Classify: &classify}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			valid, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			oversized := append(bytes.Repeat([]byte(" "), maxQueryBytes+1-len(valid)), valid...)
			if code, body, _ := postBody(t, ts.URL+tc.path, "application/json", oversized); code < 400 || code > 499 {
				t.Errorf("%d-byte body: status %d, want 4xx: %s", len(oversized), code, body)
			}
			if code, body, _ := postBody(t, ts.URL+tc.path, "application/json", valid); code != http.StatusOK {
				t.Errorf("normal body after the oversized one: status %d: %s", code, body)
			}
		})
	}
}

// FuzzQueryBody posts arbitrary bytes to :query on a tiny served
// model. The typed request decoder and the engine behind it must
// never panic and never answer a 5xx: a malformed or unanswerable
// body is the client's fault.
func FuzzQueryBody(f *testing.F) {
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("tiny", benchfix.ModelWorkload(4, 50)); err != nil {
		f.Fatal(err)
	}
	h := New(reg, WithLogger(slog.New(slog.DiscardHandler))).Handler()
	// The tiny model's dominator is {Aaa, Aba}; its targets {Aca, Ada}.
	f.Add([]byte(`{"batch":[{"dominators":{}},{"similar":{"a":"Aaa","top":2}},{"rules":{"head":"Aca","top":3}},{"classify":{"target":"Aca","values":{"Aaa":1,"Aba":2}}}]}`))
	f.Add([]byte(`{"classify":{"target":"Ada","rows":[[1,2],[3,3]]}}`))
	f.Add([]byte(`{"similar":{"a":"Aaa","b":"Aba"},"bogus":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/tiny:query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(body) && rec.Code != http.StatusBadRequest {
			t.Fatalf("%q is not one JSON value, but answered %d: %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}
