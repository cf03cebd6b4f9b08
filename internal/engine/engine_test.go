package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hypermine/internal/classify"
	"hypermine/internal/core"
	"hypermine/internal/cover"
	"hypermine/internal/similarity"
	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

// testModel mines a deterministic model: a noisy table whose values
// correlate through a per-row base, so mining admits edges, the
// dominator covers targets, and classification is available.
func testModel(t testing.TB, seed int64, nAttrs, rows, maxTail int) *core.Model {
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
	cfg := core.Config{GammaEdge: 1.0, GammaPair: 1.0, Candidates: core.EdgeSeeded}
	if maxTail > 0 {
		cfg.MaxTailSize = maxTail
	}
	m, err := core.Build(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newEngine(t testing.TB, m *core.Model, opt Options) *Engine {
	t.Helper()
	e, err := New(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// v1Classifier reproduces the pre-engine preparation: serving
// dominator, derived targets, NewABC.
func v1Classifier(t testing.TB, m *core.Model) (*cover.Result, []int, *classify.ABC) {
	t.Helper()
	all := make([]int, m.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	res, err := cover.DominatorSetCover(m.H, all, cover.Options{Enhancement1: true, Enhancement2: true})
	if err != nil {
		t.Fatal(err)
	}
	targets := targetsOf(res)
	abc, err := classify.NewABC(m, res.DomSet, targets)
	if err != nil {
		t.Fatal(err)
	}
	return res, targets, abc
}

// TestRulesDifferential: every Engine rules answer — cold and cached —
// must be bit-identical to the v1 core.MineRules one-shot, including
// on a MaxTailSize=3 model.
func TestRulesDifferential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		maxTail int
	}{
		{"restricted", 0},
		{"tail3", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testModel(t, 11, 10, 400, tc.maxTail)
			e := newEngine(t, m, Options{})
			opts := []core.MineOptions{
				{},
				{MaxRules: 5},
				{MinSupport: 0.05, MinConfidence: 0.4, MaxRules: 10},
				{MinSupport: 0.2},
			}
			for head := 0; head < m.Table.NumAttrs(); head += 3 {
				for _, opt := range opts {
					want, err := core.MineRules(m, head, opt)
					if err != nil {
						t.Fatal(err)
					}
					for rep := 0; rep < 2; rep++ { // second read is a cache hit
						got, err := e.Rules(ctx, head, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("head %d opt %+v rep %d: engine rules differ from v1", head, opt, rep)
						}
					}
				}
			}
			st := e.Stats()
			if st.RuleHits == 0 || st.RuleMisses == 0 {
				t.Fatalf("expected both hits and misses, got %+v", st)
			}
		})
	}
}

// TestSimilarDifferential: pair answers must equal the v1 free
// functions; ranking answers must equal a v1 recompute-and-sort.
func TestSimilarDifferential(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 12, 14, 400, 0)
	e := newEngine(t, m, Options{})
	h := m.H

	for a := 0; a < h.NumVertices(); a++ {
		b := (a + 3) % h.NumVertices()
		if a == b {
			continue
		}
		resp, err := e.Do(ctx, &Request{Similar: &SimilarRequest{A: h.VertexName(a), B: h.VertexName(b)}})
		if err != nil {
			t.Fatal(err)
		}
		sim := resp.Similar
		if *sim.InSim != similarity.InSim(h, a, b) ||
			*sim.OutSim != similarity.OutSim(h, a, b) ||
			*sim.Distance != similarity.Distance(h, a, b) {
			t.Fatalf("pair (%d,%d) differs from v1: %+v", a, b, sim)
		}
	}

	// Ranking: the v1 counterpart is the all-pairs graph
	// (BuildSimilarityGraph) — the engine memoizes exactly that build,
	// so every ranked distance must equal the v1 matrix cell. (Direct
	// Distance(a, v) can differ in the last ulp for v < a because the
	// matrix computes each cell once as Distance(min, max).)
	a := 2
	all := make([]int, h.NumVertices())
	for i := range all {
		all[i] = i
	}
	vg, err := similarity.BuildGraph(h, all)
	if err != nil {
		t.Fatal(err)
	}
	type nd struct {
		name string
		d    float64
	}
	var want []nd
	for v := 0; v < h.NumVertices(); v++ {
		if v == a {
			continue
		}
		want = append(want, nd{h.VertexName(v), vg.Dist(a, v)})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].d < want[j].d })
	resp, err := e.Do(ctx, &Request{Similar: &SimilarRequest{A: h.VertexName(a), Top: len(want)}})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Similar.Neighbors
	if len(got) != len(want) {
		t.Fatalf("ranking size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Name != want[i].name || got[i].Distance != want[i].d {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDominatorDifferential: both dominator variants must be
// bit-identical to their v1 counterparts.
func TestDominatorDifferential(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 13, 12, 400, 0)
	e := newEngine(t, m, Options{})
	all := e.allVertices()
	opt := cover.Options{Enhancement1: true, Enhancement2: true}

	want6, err := cover.DominatorSetCover(m.H, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	got6, err := e.Dominator(ctx, DefaultDomSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got6, want6) {
		t.Fatalf("algorithm 6: engine %+v, v1 %+v", got6, want6)
	}

	want5, err := cover.DominatorGreedyDS(m.H, all, opt)
	if err != nil {
		t.Fatal(err)
	}
	got5, err := e.Dominator(ctx, DomSpec{Algorithm: 5, Enhancement1: true, Enhancement2: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got5, want5) {
		t.Fatalf("algorithm 5: engine %+v, v1 %+v", got5, want5)
	}

	// The two specs memoize independently and a repeat returns the
	// identical pointer (memoized, not recomputed).
	again, err := e.Dominator(ctx, DefaultDomSpec())
	if err != nil {
		t.Fatal(err)
	}
	if again != got6 {
		t.Fatal("repeat dominator query rebuilt the artifact")
	}
	if st := e.Stats(); st.DominatorBuilds != 2 {
		t.Fatalf("dominator builds %d, want 2 (one per spec)", st.DominatorBuilds)
	}
}

// TestClassifyDifferential: single and batch classification through
// Engine.Do must be bit-identical to the v1 predictor path.
func TestClassifyDifferential(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 14, 12, 500, 0)
	e := newEngine(t, m, Options{})
	_, targets, abc := v1Classifier(t, m)
	dom := abc.Dominator()
	p := abc.NewPredictor()
	rng := rand.New(rand.NewSource(99))

	for i := 0; i < 30; i++ {
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
		resp, err := e.Do(ctx, &Request{Classify: &ClassifyRequest{
			Target: m.H.VertexName(target), Values: values,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if *resp.Classify.Value != int(wantV) || *resp.Classify.Confidence != wantConf {
			t.Fatalf("query %d: engine (%d, %v), v1 (%d, %v)",
				i, *resp.Classify.Value, *resp.Classify.Confidence, wantV, wantConf)
		}
	}

	// Batch.
	rows := make([][]int, 50)
	flat := make([]table.Value, 0, len(rows)*len(dom))
	for i := range rows {
		rows[i] = make([]int, len(dom))
		for j := range rows[i] {
			rows[i][j] = 1 + rng.Intn(3)
			flat = append(flat, table.Value(rows[i][j]))
		}
	}
	target := targets[0]
	wantVals := make([]table.Value, len(rows))
	wantConf := make([]float64, len(rows))
	if err := p.PredictBatch(flat, target, wantVals, wantConf); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(ctx, &Request{Classify: &ClassifyRequest{
		Target: m.H.VertexName(target), Rows: rows,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if resp.Classify.Values[i] != int(wantVals[i]) || resp.Classify.Confidences[i] != wantConf[i] {
			t.Fatalf("batch row %d: engine (%d, %v), v1 (%d, %v)",
				i, resp.Classify.Values[i], resp.Classify.Confidences[i], wantVals[i], wantConf[i])
		}
	}
}

// TestColdEngineSingleBuild: N goroutines hammer a cold engine with
// mixed queries; each artifact must build exactly once and every
// answer must equal the v1 answer. Run with -race in CI.
func TestColdEngineSingleBuild(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 15, 10, 300, 0)
	_, targets, abc := v1Classifier(t, m)
	dom := abc.Dominator()

	// Precompute v1 truths.
	wantRules, err := core.MineRules(m, 0, core.MineOptions{MaxRules: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantDist := similarity.Distance(m.H, 0, 1)
	domVals := make([]table.Value, len(dom))
	values := map[string]int{}
	for j, a := range dom {
		domVals[j] = table.Value(1 + j%3)
		values[m.H.VertexName(a)] = 1 + j%3
	}
	wantV, wantConf, err := abc.NewPredictor().Predict(domVals, targets[0])
	if err != nil {
		t.Fatal(err)
	}

	e := newEngine(t, m, Options{})
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (w + i) % 4 {
				case 0:
					got, err := e.Rules(ctx, 0, core.MineOptions{MaxRules: 5})
					if err != nil {
						errCh <- err
						return
					}
					if !reflect.DeepEqual(got, wantRules) {
						errCh <- fmt.Errorf("rules drifted under race")
						return
					}
				case 1:
					resp, err := e.Do(ctx, &Request{Similar: &SimilarRequest{A: m.H.VertexName(0), B: m.H.VertexName(1)}})
					if err != nil {
						errCh <- err
						return
					}
					if *resp.Similar.Distance != wantDist {
						errCh <- fmt.Errorf("similar drifted under race")
						return
					}
				case 2:
					if _, err := e.Do(ctx, &Request{Similar: &SimilarRequest{A: m.H.VertexName(2), Top: 5}}); err != nil {
						errCh <- err
						return
					}
				default:
					resp, err := e.Do(ctx, &Request{Classify: &ClassifyRequest{Target: m.H.VertexName(targets[0]), Values: values}})
					if err != nil {
						errCh <- err
						return
					}
					if *resp.Classify.Value != int(wantV) || *resp.Classify.Confidence != wantConf {
						errCh <- fmt.Errorf("classify drifted under race")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.SimilarityBuilds != 1 {
		t.Errorf("similarity built %d times, want 1", st.SimilarityBuilds)
	}
	if st.DominatorBuilds != 1 {
		t.Errorf("dominator built %d times, want 1", st.DominatorBuilds)
	}
	if st.ClassifierBuilds != 1 {
		t.Errorf("classifier built %d times, want 1", st.ClassifierBuilds)
	}
	if st.RuleMisses != 1 {
		t.Errorf("rule cache missed %d times for one key, want 1", st.RuleMisses)
	}
}

// TestRuleCacheLRU: the bounded cache evicts least-recently-used
// completed answers, recomputes them on re-query, and keeps the
// accounting in step.
func TestRuleCacheLRU(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 16, 10, 300, 0)
	e := newEngine(t, m, Options{RuleCacheEntries: 2})

	q := func(head int) {
		t.Helper()
		if _, err := e.Rules(ctx, head, core.MineOptions{MaxRules: 3}); err != nil {
			t.Fatal(err)
		}
	}
	q(0)
	q(1)
	q(0) // refresh 0: LRU order is now 1, 0
	q(2) // evicts 1
	st := e.Stats()
	if st.RuleEntries != 2 || st.RuleEvictions != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	q(1) // recompute
	st2 := e.Stats()
	if st2.RuleMisses != st.RuleMisses+1 {
		t.Fatalf("evicted key did not recompute: %+v -> %+v", st, st2)
	}
	if st2.DerivedBytes <= 0 || st2.ResidentCost <= int64(m.H.NumEdges()) {
		t.Fatalf("accounting did not charge derived artifacts: %+v", st2)
	}

	// A disabled cache still answers, straight through.
	e2 := newEngine(t, m, Options{RuleCacheEntries: -1})
	want, _ := core.MineRules(m, 0, core.MineOptions{MaxRules: 3})
	got, err := e2.Rules(ctx, 0, core.MineOptions{MaxRules: 3})
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("uncached rules drifted: %v", err)
	}
}

// TestRulesRejectsBadThresholds: NaN and out-of-range thresholds are
// bad requests, and a NaN never reaches the rule cache, whose eviction
// loop could not delete a NaN key and would spin holding the cache lock.
func TestRulesRejectsBadThresholds(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t, testModel(t, 16, 10, 300, 0), Options{RuleCacheEntries: 2})
	done := make(chan []string, 1)
	go func() {
		var failed []string
		for _, opt := range []core.MineOptions{
			{MinSupport: math.NaN()}, {MinSupport: -0.1}, {MinSupport: 1.5},
			{MinConfidence: math.NaN()}, {MinConfidence: math.Inf(1)},
		} {
			var ee *Error
			if _, err := e.Rules(ctx, 0, opt); !errors.As(err, &ee) || ee.Kind != ErrBadRequest {
				failed = append(failed, fmt.Sprintf("Rules(%+v): err %v, want %s", opt, err, ErrBadRequest))
			}
		}
		// Valid queries past the cache bound must still evict and answer.
		for head := 1; head <= 3; head++ {
			if _, err := e.Rules(ctx, head, core.MineOptions{MaxRules: 3}); err != nil {
				failed = append(failed, err.Error())
			}
		}
		done <- failed
	}()
	select {
	case failed := <-done:
		for _, f := range failed {
			t.Error(f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rules queries hung in the rule cache")
	}
}

// TestCancelRetry: an artifact build aborted by its caller's context
// must not poison the memo — the next caller rebuilds and succeeds.
func TestCancelRetry(t *testing.T) {
	m := testModel(t, 17, 12, 400, 0)
	e := newEngine(t, m, Options{})
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.SimilarityGraph(canceled); err == nil {
		t.Fatal("canceled build succeeded")
	}
	if _, err := e.Rules(canceled, 0, core.MineOptions{MaxRules: 3}); err == nil {
		t.Fatal("canceled rules succeeded")
	}
	if err := e.Warmup(canceled, WarmupAll); err == nil {
		t.Fatal("canceled warmup succeeded")
	}
	// All retry cleanly.
	if _, err := e.SimilarityGraph(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Rules(context.Background(), 0, core.MineOptions{MaxRules: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.Warmup(context.Background(), WarmupAll); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.SimilarityBuilds != 1 || st.DominatorBuilds != 1 || st.ClassifierBuilds != 1 || st.IndexBuilds != 1 {
		t.Fatalf("unexpected build counts after retry: %+v", st)
	}
}

// TestMemoWaiterRetriesAfterWinnerCtxError: a waiter blocked on
// another caller's build must not inherit that caller's context
// failure — it retries and succeeds under its own live context.
func TestMemoWaiterRetriesAfterWinnerCtxError(t *testing.T) {
	var m memo[int]
	started := make(chan struct{})
	release := make(chan struct{})
	winnerErr := make(chan error, 1)
	go func() {
		_, err := m.get(context.Background(), func() (int, error) {
			close(started)
			<-release
			return 0, context.Canceled // the winner's ctx died mid-build
		})
		winnerErr <- err
	}()
	<-started
	waiterDone := make(chan struct{})
	var got int
	var gotErr error
	go func() {
		defer close(waiterDone)
		got, gotErr = m.get(context.Background(), func() (int, error) { return 42, nil })
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter block on the flight
	close(release)
	if err := <-winnerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("winner error %v, want Canceled", err)
	}
	<-waiterDone
	if gotErr != nil || got != 42 {
		t.Fatalf("waiter got (%d, %v), want (42, nil): winner's ctx error leaked", got, gotErr)
	}
	// The retry memoized the good value.
	if v, err, ok := m.cached(); !ok || err != nil || v != 42 {
		t.Fatalf("memo not settled on the retried value: (%d, %v, %v)", v, err, ok)
	}
}

// TestWarmupBuildsEverythingOnce: WarmupAll prebuilds each artifact;
// subsequent queries build nothing.
func TestWarmupBuildsEverythingOnce(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 18, 10, 300, 0)
	e := newEngine(t, m, Options{})
	if err := e.Warmup(ctx, WarmupAll); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.SimilarityBuilds != 1 || st.DominatorBuilds != 1 || st.ClassifierBuilds != 1 || st.IndexBuilds != 1 {
		t.Fatalf("warmup build counts: %+v", st)
	}
	if _, err := e.Do(ctx, &Request{Dominators: &DominatorsRequest{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(ctx, &Request{Similar: &SimilarRequest{A: m.H.VertexName(0), Top: 3}}); err != nil {
		t.Fatal(err)
	}
	if st2 := e.Stats(); st2.SimilarityBuilds != 1 || st2.DominatorBuilds != 1 {
		t.Fatalf("queries after warmup rebuilt artifacts: %+v", st2)
	}
}

// TestErrorKinds: malformed requests are ErrBadRequest, unanswerable
// ones ErrUnavailable, and graph-only models answer graph queries.
func TestErrorKinds(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 19, 10, 300, 0)

	kindOf := func(err error) ErrorKind {
		t.Helper()
		if err == nil {
			t.Fatal("expected error")
		}
		ee := AsError(err)
		return ee.Kind
	}

	e := newEngine(t, m, Options{})
	if k := kindOf(func() error { _, err := e.Do(ctx, &Request{}); return err }()); k != ErrBadRequest {
		t.Fatalf("empty request: kind %s", k)
	}
	if k := kindOf(func() error {
		_, err := e.Do(ctx, &Request{Rules: &RulesRequest{Head: "NOPE"}})
		return err
	}()); k != ErrBadRequest {
		t.Fatalf("unknown head: kind %s", k)
	}
	if k := kindOf(func() error {
		_, err := e.Do(ctx, &Request{Dominators: &DominatorsRequest{Alg: 9}})
		return err
	}()); k != ErrBadRequest {
		t.Fatalf("bad alg: kind %s", k)
	}
	// Nested batches fail per-item, not whole-request.
	nested, err := e.Do(ctx, &Request{Batch: []Request{{Batch: []Request{{}}}, {Dominators: &DominatorsRequest{}}}})
	if err != nil {
		t.Fatalf("nested batch aborted the whole request: %v", err)
	}
	if nested.Batch[0].Error == nil || nested.Batch[0].Error.Kind != ErrBadRequest {
		t.Fatalf("nested batch item: %+v", nested.Batch[0])
	}
	if nested.Batch[1].Dominators == nil {
		t.Fatal("healthy batch sibling did not answer")
	}

	// Graph-only model: similar/dominators answer, rules/classify are
	// unavailable.
	g := newEngine(t, &core.Model{H: m.H, RowsOmitted: true}, Options{})
	if _, err := g.Do(ctx, &Request{Dominators: &DominatorsRequest{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Do(ctx, &Request{Similar: &SimilarRequest{A: m.H.VertexName(0), Top: 3}}); err != nil {
		t.Fatal(err)
	}
	if k := kindOf(func() error {
		_, err := g.Do(ctx, &Request{Rules: &RulesRequest{Head: m.H.VertexName(0)}})
		return err
	}()); k != ErrUnavailable {
		t.Fatalf("graph-only rules: kind %s", k)
	}
	if k := kindOf(func() error {
		_, err := g.Do(ctx, &Request{Classify: &ClassifyRequest{Target: m.H.VertexName(5), Values: map[string]int{}}})
		return err
	}()); k != ErrUnavailable {
		t.Fatalf("graph-only classify: kind %s", k)
	}
}

// TestBatchMixed: a batch answers items independently; the nested
// check above covers per-item failure, this covers payload fidelity.
func TestBatchMixed(t *testing.T) {
	ctx := context.Background()
	m := testModel(t, 20, 10, 300, 0)
	e := newEngine(t, m, Options{})
	resp, err := e.Do(ctx, &Request{Batch: []Request{
		{Dominators: &DominatorsRequest{}},
		{Similar: &SimilarRequest{A: m.H.VertexName(0), B: m.H.VertexName(1)}},
		{Rules: &RulesRequest{Head: m.H.VertexName(0), Top: 3}},
		{Similar: &SimilarRequest{A: "NOPE"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != 4 {
		t.Fatalf("batch size %d", len(resp.Batch))
	}
	if resp.Batch[0].Dominators == nil || resp.Batch[1].Similar == nil || resp.Batch[2].Rules == nil {
		t.Fatalf("missing payloads: %+v", resp.Batch)
	}
	if resp.Batch[3].Error == nil || resp.Batch[3].Error.Kind != ErrBadRequest {
		t.Fatalf("bad item did not fail alone: %+v", resp.Batch[3])
	}
	// Individual answers equal the single-request answers.
	single, err := e.Do(ctx, &Request{Similar: &SimilarRequest{A: m.H.VertexName(0), B: m.H.VertexName(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if *resp.Batch[1].Similar.Distance != *single.Similar.Distance {
		t.Fatal("batch similar differs from single")
	}
}

// TestPredictZeroAllocs pins the warm typed classify path at zero heap
// allocations per query.
func TestPredictZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	m := testModel(t, 21, 12, 500, 0)
	e := newEngine(t, m, Options{})
	targets, err := e.Targets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := e.Dominator(ctx, DefaultDomSpec())
	if err != nil {
		t.Fatal(err)
	}
	domVals := make([]table.Value, len(dom.DomSet))
	for j := range domVals {
		domVals[j] = table.Value(1 + j%3)
	}
	target := targets[0]
	// Warm the pool.
	if _, _, err := e.Predict(ctx, domVals, target); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := e.Predict(ctx, domVals, target); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm Predict allocates %.1f/op, want 0", allocs)
	}

	// The warm batch path too.
	out := make([]table.Value, 16)
	conf := make([]float64, 16)
	batch := make([]table.Value, 16*len(dom.DomSet))
	for i := range batch {
		batch[i] = table.Value(1 + i%3)
	}
	if err := e.PredictBatch(ctx, batch, target, out, conf); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := e.PredictBatch(ctx, batch, target, out, conf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm PredictBatch allocates %.1f/op, want 0", allocs)
	}
}

// warmDoAllocs returns the steady-state allocations of one warm
// Engine.Do of req on the 12x500 fixture.
func warmDoAllocs(t *testing.T, req *Request) float64 {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	e := newEngine(t, testModel(t, 21, 12, 500, 0), Options{})
	if _, err := e.Do(ctx, req); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := e.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWarmDoRulesAllocs pins a cached rules answer: the rendered rules
// are kept with the cache entry, so a warm read copies them out
// instead of formatting each rule again.
func TestWarmDoRulesAllocs(t *testing.T) {
	got := warmDoAllocs(t, &Request{Rules: &RulesRequest{Head: "A05", Top: 5}})
	t.Logf("warm rules Do: %.0f allocs", got)
	if got > 2 {
		t.Errorf("warm rules Do allocates %.0f, want <= 2", got)
	}
}

// TestWarmDoDominatorsAllocs pins a memoized dominator answer: the
// dominator and target names are kept with the memo, so a warm read
// copies two name slices.
func TestWarmDoDominatorsAllocs(t *testing.T) {
	got := warmDoAllocs(t, &Request{Dominators: &DominatorsRequest{}})
	t.Logf("warm dominators Do: %.0f allocs", got)
	if got > 3 {
		t.Errorf("warm dominators Do allocates %.0f, want <= 3", got)
	}
}

// TestWarmAnswersAreCopies: rules and dominators answers are rendered
// once and kept with their memos, so every answer must be a copy: a
// caller that edits one cannot change what the next caller reads.
func TestWarmAnswersAreCopies(t *testing.T) {
	ctx := context.Background()
	e := newEngine(t, testModel(t, 21, 12, 500, 0), Options{})
	rules := &Request{Rules: &RulesRequest{Head: "A05", Top: 5}}
	doms := &Request{Dominators: &DominatorsRequest{}}
	first, err := e.Do(ctx, rules)
	if err != nil {
		t.Fatal(err)
	}
	firstDom, err := e.Do(ctx, doms)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rules.Rules) == 0 || len(firstDom.Dominators.Dominator) == 0 || len(firstDom.Dominators.Targets) == 0 {
		t.Fatalf("fixture answers are empty: %+v %+v", first.Rules, firstDom.Dominators)
	}
	want, _ := json.Marshal(first)
	wantDom, _ := json.Marshal(firstDom)
	first.Rules.Rules[0].Rule = "edited"
	firstDom.Dominators.Dominator[0] = "edited"
	firstDom.Dominators.Targets[0] = "edited"
	again, err := e.Do(ctx, rules)
	if err != nil {
		t.Fatal(err)
	}
	againDom, err := e.Do(ctx, doms)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(again); !bytes.Equal(got, want) {
		t.Errorf("rules answer changed after a caller edited an earlier one:\n got %s\nwant %s", got, want)
	}
	if got, _ := json.Marshal(againDom); !bytes.Equal(got, wantDom) {
		t.Errorf("dominators answer changed after a caller edited an earlier one:\n got %s\nwant %s", got, wantDom)
	}
}
