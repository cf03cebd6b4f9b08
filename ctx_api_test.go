package hypermine

import (
	"hypermine/internal/runopt"

	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// ctxFixture builds a small deterministic universe/table for the
// facade-level v2 API tests.
func ctxFixture(t *testing.T) *Table {
	t.Helper()
	gen := DefaultGenConfig()
	gen.NumSeries = 20
	gen.NumDays = 300
	u, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := u.BuildTable(3)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestFacadeContextFormsIdentical proves every facade ...Context
// entry point is bit-identical to its v1 form on a background
// context, with the unified options applied.
func TestFacadeContextFormsIdentical(t *testing.T) {
	tb := ctxFixture(t)
	ctx := context.Background()
	var mu sync.Mutex
	phases := map[Phase]int{}
	progress := func(ph Phase, done, total int) {
		mu.Lock()
		phases[ph]++
		mu.Unlock()
	}
	opts := []Option{WithWorkers(2), WithProgress(progress), WithDeadlineCheckEvery(1)}

	wantModel, err := Build(tb, C1())
	if err != nil {
		t.Fatal(err)
	}
	gotModel, err := BuildContext(ctx, tb, C1(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if wantModel.H.NumEdges() != gotModel.H.NumEdges() || !reflect.DeepEqual(wantModel.EdgeACV, gotModel.EdgeACV) {
		t.Fatal("BuildContext differs from Build")
	}

	wantDom, err := LeadingIndicators(wantModel.H, nil, DominatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotDom, err := LeadingIndicatorsContext(ctx, gotModel.H, nil, DominatorOptions{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantDom, gotDom) {
		t.Fatal("LeadingIndicatorsContext differs from LeadingIndicators")
	}

	all := make([]int, wantModel.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	wantSim, err := BuildSimilarityGraph(wantModel.H, all)
	if err != nil {
		t.Fatal(err)
	}
	gotSim, err := BuildSimilarityGraphContext(ctx, gotModel.H, all, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantSim, gotSim) {
		t.Fatal("BuildSimilarityGraphContext differs from BuildSimilarityGraph")
	}

	aOpt := AprioriOptions{MinSupport: 0.1, MaxLen: 3}
	wantFreq, err := FrequentItemsets(tb, aOpt)
	if err != nil {
		t.Fatal(err)
	}
	gotFreq, err := FrequentItemsetsContext(ctx, tb, aOpt, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantFreq, gotFreq) {
		t.Fatal("FrequentItemsetsContext differs from FrequentItemsets")
	}

	head := 0
	for h := 0; h < tb.NumAttrs(); h++ {
		if len(wantModel.H.In(h)) > 0 {
			head = h
			break
		}
	}
	wantRules, err := MineRules(wantModel, head, MineOptions{MaxRules: 20})
	if err != nil {
		t.Fatal(err)
	}
	gotRules, err := MineRulesContext(ctx, gotModel, head, MineOptions{MaxRules: 20}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRules, gotRules) {
		t.Fatal("MineRulesContext differs from MineRules")
	}

	mu.Lock()
	defer mu.Unlock()
	for _, ph := range []Phase{PhaseEdges, PhasePairs, PhaseDominator, PhaseSimilarity, PhaseApriori, PhaseRules} {
		if phases[ph] == 0 {
			t.Errorf("WithProgress never observed phase %q", ph)
		}
	}
}

// TestFacadeCrossValidateContext covers the remaining facade entry
// point: CrossValidateABCContext against CrossValidateABC.
func TestFacadeCrossValidateContext(t *testing.T) {
	tb := ctxFixture(t)
	model, err := Build(tb, C1())
	if err != nil {
		t.Fatal(err)
	}
	dom, err := LeadingIndicators(model.H, nil, DominatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inDom := map[int]bool{}
	for _, v := range dom.DomSet {
		inDom[v] = true
	}
	var targets []int
	for v, cov := range dom.Covered {
		if cov && !inDom[v] {
			targets = append(targets, v)
		}
	}
	if len(targets) == 0 {
		t.Skip("fixture has no covered targets")
	}
	want, err := CrossValidateABC(tb, C1(), dom.DomSet, targets, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossValidateABCContext(context.Background(), tb, C1(), dom.DomSet, targets, 3, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("CrossValidateABCContext %v != CrossValidateABC %v", got, want)
	}
	// Canceled mid-fold via progress.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = CrossValidateABCContext(ctx, tb, C1(), dom.DomSet, targets, 3,
		WithProgress(func(ph Phase, done, total int) {
			if ph == PhaseFolds {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

// TestFacadeOptionsMergeCallerHooks pins the merge semantics: a
// facade Option overrides only its own field of caller-attached Run
// hooks, never clobbering the rest (the silent-overwrite class the
// Variant satellite fixes must not reappear here).
func TestFacadeOptionsMergeCallerHooks(t *testing.T) {
	tb := ctxFixture(t)
	// BuildContext's parallel stages call Progress from several
	// workers at once, so the count must be atomic.
	var called atomic.Int64
	cfg := C1()
	cfg.Run = &runopt.Hooks{Progress: func(Phase, int, int) { called.Add(1) }}
	// WithDeadlineCheckEvery must not drop the caller's Progress...
	if _, err := BuildContext(context.Background(), tb, cfg, WithDeadlineCheckEvery(4)); err != nil {
		t.Fatal(err)
	}
	if called.Load() == 0 {
		t.Fatal("WithDeadlineCheckEvery clobbered the caller's Progress hook")
	}
	// ...and must not mutate the caller's struct either.
	if cfg.Run.CheckEvery != 0 {
		t.Fatalf("caller's hooks mutated: CheckEvery = %d", cfg.Run.CheckEvery)
	}
}

// TestFacadeCancellation spot-checks that canceled contexts propagate
// out of the facade forms.
func TestFacadeCancellation(t *testing.T) {
	tb := ctxFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, tb, C1()); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildContext: want Canceled, got %v", err)
	}
	if _, err := FrequentItemsetsContext(ctx, tb, AprioriOptions{MinSupport: 0.1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FrequentItemsetsContext: want Canceled, got %v", err)
	}
	model, err := Build(tb, C1())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LeadingIndicatorsContext(ctx, model.H, nil, DominatorOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("LeadingIndicatorsContext: want Canceled, got %v", err)
	}
	if _, err := BuildSimilarityGraphContext(ctx, model.H, []int{0, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildSimilarityGraphContext: want Canceled, got %v", err)
	}
}

// TestLeadingIndicatorsVariant is the option-mutation satellite: the
// historical forced-enhancements default is now opt-in by Variant, and
// explicit settings are respected when asked for.
func TestLeadingIndicatorsVariant(t *testing.T) {
	tb := ctxFixture(t)
	model, err := Build(tb, C1())
	if err != nil {
		t.Fatal(err)
	}
	// DominatorAuto (zero value): identical to DominatorSetCover with
	// both enhancements on, regardless of the caller's flags.
	auto, err := LeadingIndicators(model.H, nil, DominatorOptions{Enhancement1: false, Enhancement2: false})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, model.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	enhanced, err := DominatorSetCover(model.H, all, DominatorOptions{Enhancement1: true, Enhancement2: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, enhanced) {
		t.Fatal("DominatorAuto must force both enhancements on")
	}
	// DominatorExplicit: the caller's flags are honored verbatim.
	explicit, err := LeadingIndicators(model.H, nil, DominatorOptions{Variant: DominatorExplicit})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DominatorSetCover(model.H, all, DominatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, plain) {
		t.Fatal("DominatorExplicit must respect the caller's Enhancement flags")
	}
	// On a mined fixture the two policies can coincide, which would
	// make the assertions above vacuous — so also prove the distinction
	// on a crafted graph where Enhancement 1's tie break provably
	// changes the pick order: tails {0,1} and {5} both score alpha 3 in
	// round one, and Enhancement 1 prefers {5} (one new member) while
	// the plain algorithm keeps the lexicographically first {0,1}.
	names := []string{"a", "b", "c", "d", "e", "f"}
	crafted, err := NewHypergraph(names)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		tail []int
		head int
	}{
		{[]int{0, 1}, 2},
		{[]int{5}, 3},
		{[]int{5}, 4},
	} {
		if err := crafted.AddEdge(e.tail, []int{e.head}, 1.0); err != nil {
			t.Fatal(err)
		}
	}
	autoRes, err := LeadingIndicators(crafted, nil, DominatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	explicitRes, err := LeadingIndicators(crafted, nil, DominatorOptions{Variant: DominatorExplicit})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(autoRes.DomSet, explicitRes.DomSet) {
		t.Fatalf("crafted graph: Auto and Explicit must differ, both got %v", autoRes.DomSet)
	}
	if len(autoRes.DomSet) == 0 || autoRes.DomSet[0] != 5 {
		t.Fatalf("Enhancement 1 (Auto) should pick vertex f first, got %v", autoRes.DomSet)
	}
	if len(explicitRes.DomSet) == 0 || explicitRes.DomSet[0] != 0 {
		t.Fatalf("plain Algorithm 6 (Explicit, no enhancements) should pick {a,b} first, got %v", explicitRes.DomSet)
	}
}
