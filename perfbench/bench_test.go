package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"hypermine/internal/apriori"
	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/hypergraph"
	"hypermine/internal/registry"
	"hypermine/internal/server"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false}, // 9 beyond
		{20, 0.5, 10, true},  // 10 beyond
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
	} {
		got, ok := percentile(xs(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d q=%v: got (%v, %v), want (%v, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported a percentile")
	}
	for _, c := range []struct {
		n      int
		target float64
		want   float64
	}{{5000, 0.99, 0.99}, {36, 0.9, 0.72}, {20, 0.9, 0.5}, {10, 0.9, 0.5}, {200, 0.9, 0.9}} {
		q := tailQ(c.n, c.target)
		if q != c.want {
			t.Errorf("tailQ(%d, %v) = %v, want %v", c.n, c.target, q, c.want)
		}
		if c.n >= 2*minBeyond {
			if _, ok := percentile(xs(c.n), q); !ok {
				t.Errorf("tailQ(%d) = %v does not keep %d samples beyond", c.n, q, minBeyond)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the BENCHMARK.json that declares them.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadParams(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	r := newResult("x")
	r.commonEndToEnd(1, 1, 1)
	var e2e []decl
	for _, m := range r.endToEnd {
		e2e = append(e2e, decl{m.name, m.unit})
	}
	if !reflect.DeepEqual(e2e, spec.EndToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, spec.EndToEnd)
	}
	var layers []decl
	for _, m := range perLayerMetrics {
		layers = append(layers, decl{m.name, m.unit})
	}
	if !reflect.DeepEqual(layers, spec.PerLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", layers, spec.PerLayer)
	}
}

func TestMaxRateLadder(t *testing.T) {
	step := func(rate, p99 float64) ladderStep { return ladderStep{rate: rate, p99: p99, p99ok: true} }
	const limit = 1000
	for _, c := range []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass", []ladderStep{step(100, 200), step(200, 300), step(400, 900)}, 400},
		{"knee", []ladderStep{step(100, 200), step(200, 800), step(400, 5000)}, 200},
		{"limit is inclusive", []ladderStep{step(100, 1000), step(200, 1001)}, 100},
		{"none", []ladderStep{step(100, 2000)}, 0},
		{"pass above a failure does not count", []ladderStep{step(100, 200), step(200, 5000), step(400, 300)}, 100},
		{"too few samples", []ladderStep{step(100, 200), {rate: 200, p99: 10}}, 100},
		{"failed reads", []ladderStep{step(100, 200), {rate: 200, p99: 10, p99ok: true, failed: 1}}, 100},
		{"growing backlog", []ladderStep{step(100, 200), {rate: 200, p99: 10, p99ok: true, backlog: true}}, 100},
	} {
		if got := maxRate(c.steps, limit); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	d1, d2 := newDist(12), newDist(12)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed gave different distributions")
	}
	c1, c2 := d1.columns(newRNG(7, streamTable), 50), d2.columns(newRNG(7, streamTable), 50)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("same seed gave different tables")
	}
	if reflect.DeepEqual(c1, newDist(12).columns(newRNG(8, streamTable), 50)) {
		t.Fatal("different seeds gave the same table")
	}
	attrs := d1.attrs
	p1 := readPool(7, "m", attrs, attrs[:2], attrs[2:])
	p2 := readPool(7, "m", attrs, attrs[:2], attrs[2:])
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(readOrder(7, 100, len(p1)), readOrder(7, 100, len(p2))) {
		t.Fatal("same seed gave different read streams")
	}
	kinds := map[string]int{}
	for _, q := range p1 {
		kinds[q.kind]++
	}
	for _, m := range readMix {
		if kinds[m.kind] != m.weight*poolPerWeight {
			t.Errorf("pool has %d %s reads, want %d", kinds[m.kind], m.kind, m.weight*poolPerWeight)
		}
	}
	w1, w2 := writeSchedule(7, d1, 20), writeSchedule(7, d2, 20)
	if !reflect.DeepEqual(w1, w2) {
		t.Fatal("same seed gave different write schedules")
	}
	for i, w := range w1 {
		if w.put != ((i+1)%putEvery == 0) || (!w.put && (len(w.rows) < 1 || len(w.rows) > 100)) {
			t.Errorf("write %d: put=%v rows=%d", i, w.put, len(w.rows))
		}
	}
}

// servedFixture serves a small seeded model in process and returns a
// pool of reads, the handler, and a reference engine of its own.
func servedFixture(t *testing.T) ([]readReq, http.Handler, *engine.Engine) {
	t.Helper()
	d := newDist(10)
	tb, err := d.table(newRNG(3, streamTable), 600)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(tb, servingConfig)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Options{})
	if _, err := reg.Load("m", m); err != nil {
		t.Fatal(err)
	}
	h := server.New(reg, server.WithLogger(discard)).Handler()
	ref, err := engine.New(m, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dr, err := ref.Do(context.Background(), &engine.Request{Dominators: &engine.DominatorsRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	return readPool(3, "m", d.attrs, dr.Dominators.Dominator, dr.Dominators.Targets), h, ref
}

func serve(t *testing.T, h http.Handler, q *readReq) []byte {
	t.Helper()
	r := httptest.NewRequest(q.method, q.path, bytes.NewReader(q.body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("%s %s: %d %s", q.method, q.path, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// bumpFirstNumber corrupts a JSON answer: one number in it grows by
// one. It returns nil when the answer holds no number.
func bumpFirstNumber(t *testing.T, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	var bump func(x any) bool
	bump = func(x any) bool {
		switch x := x.(type) {
		case map[string]any:
			for k, e := range x {
				if f, ok := e.(float64); ok {
					x[k] = f + 1
					return true
				}
				if bump(e) {
					return true
				}
			}
		case []any:
			for i, e := range x {
				if f, ok := e.(float64); ok {
					x[i] = f + 1
					return true
				}
				if bump(e) {
					return true
				}
			}
		}
		return false
	}
	if !bump(v) {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVerifierAcceptsServedAndRejectsCorrupted(t *testing.T) {
	pool, h, ref := servedFixture(t)
	seen := map[string]bool{}
	for i := range pool {
		q := &pool[i]
		if seen[q.kind] {
			continue
		}
		seen[q.kind] = true
		want, err := ref.Do(context.Background(), &q.req)
		if err != nil {
			t.Fatal(err)
		}
		body := serve(t, h, q)
		if err := checkAnswer(q.kind, body, want); err != nil {
			t.Errorf("%s: served answer rejected: %v", q.kind, err)
		}
		if bad := bumpFirstNumber(t, body); bad != nil {
			if err := checkAnswer(q.kind, bad, want); err == nil {
				t.Errorf("%s: corrupted answer accepted: %s", q.kind, bad)
			}
		}
		if err := checkAnswer(q.kind, []byte(`{"unexpected":1}`), want); err == nil {
			t.Errorf("%s: answer with an unknown field accepted", q.kind)
		}
	}
	if len(seen) != len(readMix) {
		t.Fatalf("covered kinds %v, want all of the mix", seen)
	}

	// verifyGen counts every wrong answer, not only the first.
	q := &pool[0]
	body := serve(t, h, q)
	ans := newAnswers()
	for _, b := range [][]byte{body, bumpFirstNumber(t, body), body, bumpFirstNumber(t, body), body} {
		ans.record(ansKey{0, 1}, b)
	}
	if wrong, _ := verifyGen(context.Background(), pool, ans.all(), ref); wrong != 2 {
		t.Errorf("verifyGen found %d wrong answers, want 2", wrong)
	}
}

func TestWriteLogRejectsLostAppend(t *testing.T) {
	log := &writeLog{baseRows: 100, recs: []writeRec{
		{put: true, gen: 1, ackRows: 100},
		{added: 5, gen: 2, ackRows: 105},
		{added: 3, gen: 3, ackRows: 108},
		{put: true, gen: 4, ackRows: 100},
		{added: 2, gen: 5, ackRows: 102},
	}}
	if gen, rows := log.expected(); gen != 5 || rows != 102 {
		t.Fatalf("expected() = %d, %d; want 5, 102", gen, rows)
	}
	if err := log.check(5, 102); err != nil {
		t.Fatalf("consistent final state rejected: %v", err)
	}
	for _, c := range []struct {
		name      string
		gen, rows int
	}{
		{"lost last append", 4, 100},
		{"rows of an acked append missing", 5, 100},
		{"generation behind", 4, 102},
	} {
		if err := log.check(int64(c.gen), c.rows); err == nil {
			t.Errorf("%s: accepted generation %d with %d rows", c.name, c.gen, c.rows)
		}
	}
	bad := &writeLog{baseRows: 100, recs: []writeRec{{put: true, gen: 1, ackRows: 100}, {added: 5, gen: 2, ackRows: 104}}}
	if err := bad.check(2, 104); err == nil {
		t.Error("an ack reporting fewer rows than appended was accepted")
	}
	stale := &writeLog{baseRows: 100, recs: []writeRec{{put: true, gen: 3, ackRows: 100}, {added: 5, gen: 3, ackRows: 105}}}
	if err := stale.check(3, 105); err == nil {
		t.Error("an ack that did not advance the generation was accepted")
	}
}

func TestMineChecksCatchCorruption(t *testing.T) {
	d := newDist(9)
	tb, err := d.table(newRNG(5, streamTable), 800)
	if err != nil {
		t.Fatal(err)
	}
	test, err := d.table(newRNG(5, streamMine), 200)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := pipeline(context.Background(), tb, test, core.C1(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyPipeline(tb, out); err != nil {
		t.Fatalf("correct pipeline rejected: %v", err)
	}

	h := out.model.H
	bad, err := hypergraph.New(h.VertexNames())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range h.Edges() {
		w := e.Weight
		if i == h.NumEdges()/2 {
			w += 1e-9
		}
		if err := bad.AddEdge(e.Tail, e.Head, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkEdgeWeights(tb, bad, h.NumEdges()); err == nil {
		t.Error("corrupted edge weight accepted")
	}

	dom := *out.dom
	dom.Covered = append([]bool(nil), out.dom.Covered...)
	dom.Covered[dom.DomSet[0]] = false
	dom.TargetCovered--
	if err := checkDominator(h, &dom); err == nil {
		t.Error("corrupted dominator coverage accepted")
	}

	freq := append([]apriori.Frequent(nil), out.freq...)
	freq[0].Count++
	if err := checkItemsets(tb, freq, 1); err == nil {
		t.Error("corrupted itemset count accepted")
	}
}
