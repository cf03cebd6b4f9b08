package registry

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/table"
)

// testModel mines a deterministic model: a noisy table whose first
// five attributes drive the rest, so the dominator covers targets and
// classification is available.
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

// snapshotRoundTrip reloads a model through the binary codec, exactly
// as the serving PUT path does.
func snapshotRoundTrip(t testing.TB, m *core.Model) *core.Model {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, m, core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	back, err := core.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestLoadAcquireRelease(t *testing.T) {
	r := New(Options{})
	m := testModel(t, 3, 12, 400)
	info, err := r.Load("demo", m)
	if err != nil {
		t.Fatal(err)
	}
	if info.Swapped || len(info.Evicted) > 0 {
		t.Fatalf("fresh load reported swap/evictions: %+v", info)
	}
	s := r.Acquire("demo")
	if s == nil {
		t.Fatal("Acquire returned nil")
	}
	if s.Model() != m {
		t.Fatal("served model is not the loaded model")
	}
	ctx := context.Background()
	if targets, err := s.Engine().Targets(ctx); err != nil || len(targets) == 0 {
		t.Fatalf("targets %v, %v — fixture should classify", targets, err)
	}
	if _, err := s.Engine().Classifier(ctx); err != nil {
		t.Fatal(err)
	}
	p, err := s.Engine().BorrowPredictor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().ReturnPredictor(ctx, p)
	s.Release()

	if got := r.Acquire("nope"); got != nil {
		t.Fatal("Acquire of unknown name succeeded")
	}
	if !r.Remove("demo") {
		t.Fatal("Remove of resident model reported absent")
	}
	if got := r.Acquire("demo"); got != nil {
		t.Fatal("Acquire after Remove succeeded")
	}
}

func TestRowlessModelClassifyUnavailable(t *testing.T) {
	m := testModel(t, 5, 10, 300)
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, m, core.SaveOptions{OmitRows: true}); err != nil {
		t.Fatal(err)
	}
	rowless, err := core.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{})
	if _, err := r.Load("slim", rowless); err != nil {
		t.Fatal(err)
	}
	s := r.Acquire("slim")
	defer s.Release()
	ctx := context.Background()
	if _, err := s.Engine().Classifier(ctx); err == nil || !strings.Contains(err.Error(), "cannot classify") {
		t.Fatalf("Classifier error = %v, want cannot-classify", err)
	}
	if _, err := s.Engine().BorrowPredictor(ctx); err == nil {
		t.Fatal("BorrowPredictor on row-less model succeeded")
	}
	// Graph queries still served.
	if _, err := s.Engine().SimilarityGraph(ctx); err != nil {
		t.Fatalf("similarity graph on row-less model: %v", err)
	}
	if dom, err := s.Engine().Dominator(ctx, engine.DefaultDomSpec()); err != nil || len(dom.DomSet) == 0 {
		t.Fatalf("dominator on row-less model: %v", err)
	}
}

// expectedAnswers precomputes the serving answers for every evaluation
// row and target, serially, before any concurrency: the ground truth
// the hot-swap test compares against.
func expectedAnswers(t *testing.T, s *Served, queries [][]table.Value) map[int][]table.Value {
	t.Helper()
	ctx := context.Background()
	abc, err := s.Engine().Classifier(ctx)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := s.Engine().Targets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := abc.NewPredictor()
	out := make(map[int][]table.Value)
	for _, target := range targets {
		preds := make([]table.Value, len(queries))
		for i, q := range queries {
			v, _, err := p.Predict(q, target)
			if err != nil {
				t.Fatal(err)
			}
			preds[i] = v
		}
		out[target] = preds
	}
	return out
}

// TestHotSwapBitIdentical: concurrent readers classify continuously
// while the model is hot-swapped several times with a model rebuilt
// from the same snapshot bytes. Every answer, before, during and after
// every reload, must equal the serially precomputed expectation. Run
// under -race this also proves the swap path publishes safely.
func TestHotSwapBitIdentical(t *testing.T) {
	base := testModel(t, 11, 14, 600)
	r := New(Options{})
	if _, err := r.Load("m", snapshotRoundTrip(t, base)); err != nil {
		t.Fatal(err)
	}

	// Deterministic query batch over the dominator attributes.
	ctx := context.Background()
	s0 := r.Acquire("m")
	res, err := s0.Engine().Dominator(ctx, engine.DefaultDomSpec())
	if err != nil {
		t.Fatal(err)
	}
	dom := res.DomSet
	targets, err := s0.Engine().Targets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	queries := make([][]table.Value, 64)
	for i := range queries {
		q := make([]table.Value, len(dom))
		for j := range q {
			q[j] = table.Value(1 + rng.Intn(3))
		}
		queries[i] = q
	}
	want := expectedAnswers(t, s0, queries)
	s0.Release()

	const readers = 8
	const swapsWanted = 6
	var stop atomic.Bool
	var checked atomic.Int64
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				s := r.Acquire("m")
				if s == nil {
					errCh <- fmt.Errorf("model vanished mid-swap")
					return
				}
				p, err := s.Engine().BorrowPredictor(ctx)
				if err != nil {
					s.Release()
					errCh <- err
					return
				}
				q := queries[i%len(queries)]
				target := targets[i%len(targets)]
				v, _, err := p.Predict(q, target)
				s.Engine().ReturnPredictor(ctx, p)
				s.Release()
				if err != nil {
					errCh <- err
					return
				}
				if v != want[target][i%len(queries)] {
					errCh <- fmt.Errorf("reader %d: query %d target %d: got %d, want %d",
						w, i%len(queries), target, v, want[target][i%len(queries)])
					return
				}
				checked.Add(1)
			}
		}(w)
	}

	// Require reader progress between swaps, so every reload provably
	// has in-flight queries before, during, and after it (on one CPU
	// back-to-back swaps could otherwise finish before any reader ran).
	waitProgress := func(min int64) {
		deadline := time.Now().Add(30 * time.Second)
		for checked.Load() < min {
			if time.Now().After(deadline) {
				stop.Store(true)
				t.Fatal("readers made no progress")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := 0; i < swapsWanted; i++ {
		waitProgress(checked.Load() + 2*readers)
		info, err := r.Load("m", snapshotRoundTrip(t, base))
		if err != nil {
			stop.Store(true)
			t.Fatal(err)
		}
		if !info.Swapped {
			stop.Store(true)
			t.Fatal("reload did not report a swap")
		}
	}
	waitProgress(checked.Load() + 2*readers)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if checked.Load() == 0 {
		t.Fatal("no queries verified")
	}
	if got := r.Stats().Swaps; got != swapsWanted {
		t.Fatalf("swap count %d, want %d", got, swapsWanted)
	}
	// After the final Load returned, every prior generation is drained.
	s := r.Acquire("m")
	if s.Generation() != swapsWanted+1 {
		t.Fatalf("generation %d, want %d", s.Generation(), swapsWanted+1)
	}
	s.Release()
}

// TestEvictionLRUProperty drives a randomized load/acquire sequence
// against a reference LRU simulation and checks the registry evicts
// exactly the least-recently-used models, in order, while respecting
// the resident-edge bound.
func TestEvictionLRUProperty(t *testing.T) {
	// Small models with identical shapes load fast; edge counts differ
	// only via mining noise, so fetch each model's real edge count.
	models := make([]*core.Model, 6)
	edgeCount := make([]int, len(models))
	for i := range models {
		models[i] = testModel(t, int64(100+i), 8, 150)
		edgeCount[i] = models[i].H.NumEdges()
	}
	name := func(i int) string { return fmt.Sprintf("m%d", i) }

	maxEdges := edgeCount[0] + edgeCount[1] + edgeCount[2] // room for ~3 models
	r := New(Options{MaxResidentEdges: maxEdges})

	// Reference state: resident set with last-used stamps.
	type refEntry struct {
		edges int
		used  int
	}
	ref := map[string]*refEntry{}
	clock := 0
	refLoad := func(n string, edges int) []string {
		clock++
		ref[n] = &refEntry{edges: edges, used: clock}
		var evicted []string
		total := func() int {
			sum := 0
			for _, e := range ref {
				sum += e.edges
			}
			return sum
		}
		for total() > maxEdges {
			victim := ""
			for cand, e := range ref {
				if cand == n {
					continue
				}
				if victim == "" || e.used < ref[victim].used {
					victim = cand
				}
			}
			if victim == "" {
				break
			}
			delete(ref, victim)
			evicted = append(evicted, victim)
		}
		return evicted
	}
	refTouch := func(n string) {
		if e, ok := ref[n]; ok {
			clock++
			e.used = clock
		}
	}

	rng := rand.New(rand.NewSource(77))
	for step := 0; step < 200; step++ {
		i := rng.Intn(len(models))
		if rng.Intn(3) == 0 {
			// Touch via Acquire (LRU bump) — on both sides.
			s := r.Acquire(name(i))
			_, inRef := ref[name(i)]
			if (s != nil) != inRef {
				t.Fatalf("step %d: residency mismatch for %s: registry=%v ref=%v", step, name(i), s != nil, inRef)
			}
			if s != nil {
				s.Release()
				refTouch(name(i))
			}
			continue
		}
		info, err := r.Load(name(i), models[i])
		if err != nil {
			t.Fatal(err)
		}
		wantEvicted := refLoad(name(i), edgeCount[i])
		if len(info.Evicted) != len(wantEvicted) {
			t.Fatalf("step %d: evicted %v, want %v", step, info.Evicted, wantEvicted)
		}
		for j := range wantEvicted {
			if info.Evicted[j] != wantEvicted[j] {
				t.Fatalf("step %d: eviction order %v, want %v", step, info.Evicted, wantEvicted)
			}
		}
		// Resident sets agree.
		names := r.Names()
		if len(names) != len(ref) {
			t.Fatalf("step %d: resident %v, ref has %d", step, names, len(ref))
		}
		for _, n := range names {
			if _, ok := ref[n]; !ok {
				t.Fatalf("step %d: %s resident but not in ref", step, n)
			}
		}
		if st := r.Stats(); st.ResidentEdges > maxEdges {
			t.Fatalf("step %d: resident edges %d exceed bound %d", step, st.ResidentEdges, maxEdges)
		}
	}
}

// TestEvictionNeverEvictsIncoming: a model bigger than the bound still
// loads (evicting everything else) rather than evicting itself.
func TestEvictionNeverEvictsIncoming(t *testing.T) {
	small := testModel(t, 201, 8, 150)
	big := testModel(t, 202, 14, 300)
	if big.H.NumEdges() <= small.H.NumEdges() {
		t.Fatalf("fixture: big model (%d edges) not bigger than small (%d)", big.H.NumEdges(), small.H.NumEdges())
	}
	r := New(Options{MaxResidentEdges: small.H.NumEdges()})
	if _, err := r.Load("small", small); err != nil {
		t.Fatal(err)
	}
	info, err := r.Load("big", big)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Evicted) != 1 || info.Evicted[0] != "small" {
		t.Fatalf("evicted %v, want [small]", info.Evicted)
	}
	if names := r.Names(); len(names) != 1 || names[0] != "big" {
		t.Fatalf("resident %v, want [big]", names)
	}
}

// TestPeekDoesNotBumpLRU: observability reads through Peek must not
// protect a model from eviction the way Acquire usage does.
func TestPeekDoesNotBumpLRU(t *testing.T) {
	a := testModel(t, 301, 8, 150)
	b := testModel(t, 302, 8, 150)
	c := testModel(t, 303, 8, 150)
	r := New(Options{MaxResidentEdges: a.H.NumEdges() + b.H.NumEdges()})
	if _, err := r.Load("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("b", b); err != nil {
		t.Fatal(err)
	}
	// Real usage touches b; monitoring polls a many times via Peek.
	s := r.Acquire("b")
	s.Release()
	for i := 0; i < 50; i++ {
		if s := r.Peek("a"); s != nil {
			s.Release()
		}
	}
	info, err := r.Load("c", c)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Evicted) != 1 || info.Evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]: Peek must not refresh LRU", info.Evicted)
	}
}

// TestLazyLoadThenWarmupPolicy: a default Load builds nothing; a
// Warmup-configured registry prepares everything before publishing.
func TestLazyLoadThenWarmupPolicy(t *testing.T) {
	m := testModel(t, 401, 10, 300)

	lazy := New(Options{})
	if _, err := lazy.Load("m", m); err != nil {
		t.Fatal(err)
	}
	s := lazy.Acquire("m")
	st := s.Engine().Stats()
	if st.SimilarityBuilds != 0 || st.DominatorBuilds != 0 || st.ClassifierBuilds != 0 {
		t.Fatalf("lazy load prebuilt artifacts: %+v", st)
	}
	// First use builds, exactly once.
	if _, err := s.Engine().SimilarityGraph(context.Background()); err != nil {
		t.Fatalf("similarity graph unavailable: %v", err)
	}
	if got := s.Engine().Stats().SimilarityBuilds; got != 1 {
		t.Fatalf("similarity builds %d, want 1", got)
	}
	s.Release()

	eager := New(Options{Warmup: engine.WarmupAll})
	if _, err := eager.Load("m", m); err != nil {
		t.Fatal(err)
	}
	s = eager.Acquire("m")
	st = s.Engine().Stats()
	if st.SimilarityBuilds != 1 || st.DominatorBuilds != 1 || st.ClassifierBuilds != 1 || st.IndexBuilds != 1 {
		t.Fatalf("warmup did not prepare everything: %+v", st)
	}
	s.Release()
}

// TestEvictionSeesDerivedArtifactCost: a model whose engine lazily
// built heavy artifacts after load must be charged for them — loading
// another model then trips the bound even though bare edge counts
// would all fit.
func TestEvictionSeesDerivedArtifactCost(t *testing.T) {
	m1 := testModel(t, 402, 10, 300)
	m2 := testModel(t, 403, 10, 300)
	m3 := testModel(t, 404, 10, 300)

	// Generous slack above the bare edge totals: all three models fit
	// while nothing derived is resident.
	bound := m1.H.NumEdges() + m2.H.NumEdges() + m3.H.NumEdges() + 50
	r := New(Options{MaxResidentEdges: bound})
	if _, err := r.Load("m1", m1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("m2", m2); err != nil {
		t.Fatal(err)
	}

	// Queries against m1 build its similarity graph, classifier, and a
	// few rule-cache entries; m2 is touched afterwards so m1 is LRU.
	s := r.Acquire("m1")
	if _, err := s.Engine().SimilarityGraph(context.Background()); err != nil {
		t.Fatalf("similarity graph unavailable: %v", err)
	}
	if _, err := s.Engine().Classifier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Engine().Rules(context.Background(), 0, core.MineOptions{MaxRules: 10}); err != nil {
		t.Fatal(err)
	}
	grown := s.Engine().ResidentCost()
	if grown <= int64(m1.H.NumEdges()) {
		t.Fatalf("derived artifacts not charged: cost %d <= edges %d", grown, m1.H.NumEdges())
	}
	s.Release()
	if s := r.Acquire("m2"); s != nil {
		s.Release()
	}

	if grown+int64(m2.H.NumEdges())+int64(m3.H.NumEdges()) <= int64(bound) {
		t.Fatalf("fixture too small to trip the bound: grown=%d bound=%d", grown, bound)
	}
	info, err := r.Load("m3", m3)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Evicted) == 0 || info.Evicted[0] != "m1" {
		t.Fatalf("evicted %v, want m1 first: derived cost invisible to eviction", info.Evicted)
	}

	st := r.Stats()
	if st.ResidentCost > int64(bound) {
		t.Fatalf("resident cost %d still over bound %d", st.ResidentCost, bound)
	}
}
