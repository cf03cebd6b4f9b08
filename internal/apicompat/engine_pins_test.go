package apicompat

import (
	"context"
	"testing"

	hypermine "hypermine"
)

// Compile-time pins of the prepared-model Engine surface introduced by
// the engine redesign. As with the v1 pins, each entry is the exact
// published signature: a refactor that changes any of them breaks this
// package before it breaks a caller.
var (
	_ func(*hypermine.Model, hypermine.EngineOptions) (*hypermine.Engine, error)                            = hypermine.NewEngine
	_ func() hypermine.DominatorSpec                                                                        = hypermine.DefaultDominatorSpec
	_ func(*hypermine.Engine, context.Context, *hypermine.EngineRequest) (*hypermine.EngineResponse, error) = (*hypermine.Engine).Do
	_ func(*hypermine.Engine, context.Context) (*hypermine.SimilarityGraph, error)                          = (*hypermine.Engine).SimilarityGraph
	_ func(*hypermine.Engine, context.Context, hypermine.DominatorSpec) (*hypermine.DominatorResult, error) = (*hypermine.Engine).Dominator
	_ func(*hypermine.Engine, context.Context) (*hypermine.ABC, error)                                      = (*hypermine.Engine).Classifier
	_ func(*hypermine.Engine, context.Context, hypermine.DominatorSpec) (*hypermine.ABC, error)             = (*hypermine.Engine).ClassifierFor
	_ func(*hypermine.Engine, context.Context) ([]int, error)                                               = (*hypermine.Engine).Targets
	_ func(*hypermine.Engine, context.Context, int, hypermine.MineOptions) ([]hypermine.ScoredRule, error)  = (*hypermine.Engine).Rules
	_ func(*hypermine.Engine, context.Context, []hypermine.Value, int) (hypermine.Value, float64, error)    = (*hypermine.Engine).Predict
	_ func(*hypermine.Engine, context.Context, []hypermine.Value, int, []hypermine.Value, []float64) error  = (*hypermine.Engine).PredictBatch
	_ func(*hypermine.Engine, context.Context, hypermine.EngineWarmup) error                                = (*hypermine.Engine).Warmup
	_ func(*hypermine.Engine) hypermine.EngineStats                                                         = (*hypermine.Engine).Stats
	_ func(*hypermine.Engine) int64                                                                         = (*hypermine.Engine).ResidentCost
	_ func(*hypermine.Engine) *hypermine.Model                                                              = (*hypermine.Engine).Model
	_ func(*hypermine.ServedModel) *hypermine.Engine                                                        = (*hypermine.ServedModel).Engine
	_ hypermine.EngineWarmup                                                                                = hypermine.EngineWarmupAll
)

var _ = hypermine.EngineWarmupNone | hypermine.EngineWarmupIndex | hypermine.EngineWarmupSimilarity |
	hypermine.EngineWarmupDominator | hypermine.EngineWarmupClassifier

// The request/response variants must stay plain comparable-field data
// (name-based, JSON-stable); DominatorSpec must stay usable as a map
// key.
var (
	_ = hypermine.DominatorSpec{} == hypermine.DominatorSpec{}
	_ = map[hypermine.DominatorSpec]bool{}
	_ = hypermine.EngineRequest{
		Rules:      &hypermine.RulesQuery{Head: "A", Top: 5, MinSupport: 0.1, MinConfidence: 0.2},
		Similar:    &hypermine.SimilarQuery{A: "A", B: "B", Top: 3},
		Dominators: &hypermine.DominatorsQuery{Alg: 6, Complete: true},
		Classify:   &hypermine.ClassifyQuery{Target: "A", Values: map[string]int{"B": 1}, Rows: [][]int{{1}}},
	}
)

// TestEngineMatchesV1OneShot runs a miniature consumer of the engine
// surface against the v1 free functions: the first engine answer must
// equal the one-shot answer, and Warmup + repeat queries must not
// change it. The exhaustive differentials live in internal/engine;
// this pin proves the *facade* wiring.
func TestEngineMatchesV1OneShot(t *testing.T) {
	gen := hypermine.DefaultGenConfig()
	gen.NumSeries = 12
	gen.NumDays = 200
	u, err := hypermine.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := u.BuildTable(3)
	if err != nil {
		t.Fatal(err)
	}
	model, err := hypermine.Build(tb, hypermine.C1())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hypermine.NewEngine(model, hypermine.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := eng.Warmup(ctx, hypermine.EngineWarmupAll); err != nil {
		t.Fatal(err)
	}

	wantRules, err := hypermine.MineRules(model, 0, hypermine.MineOptions{MaxRules: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeats are cache reads, still identical
		gotRules, err := eng.Rules(ctx, 0, hypermine.MineOptions{MaxRules: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(gotRules) != len(wantRules) {
			t.Fatalf("engine rules %d != v1 rules %d", len(gotRules), len(wantRules))
		}
		for j := range gotRules {
			if gotRules[j].Support != wantRules[j].Support || gotRules[j].Confidence != wantRules[j].Confidence {
				t.Fatalf("rule %d drifted: %+v != %+v", j, gotRules[j], wantRules[j])
			}
		}
	}

	wantDom, err := hypermine.LeadingIndicators(model.H, nil, hypermine.DominatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotDom, err := eng.Dominator(ctx, hypermine.DefaultDominatorSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotDom.DomSet) != len(wantDom.DomSet) {
		t.Fatalf("engine dominator %v != v1 %v", gotDom.DomSet, wantDom.DomSet)
	}
	for i := range gotDom.DomSet {
		if gotDom.DomSet[i] != wantDom.DomSet[i] {
			t.Fatalf("engine dominator %v != v1 %v", gotDom.DomSet, wantDom.DomSet)
		}
	}

	wantSim, err := hypermine.BuildSimilarityGraph(model.H, nil)
	if err == nil {
		_ = wantSim // BuildSimilarityGraph rejects nil collections; tolerated either way
	}
	all := make([]int, model.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	wantSim, err = hypermine.BuildSimilarityGraph(model.H, all)
	if err != nil {
		t.Fatal(err)
	}
	gotSim, err := eng.SimilarityGraph(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		for j := range all {
			if gotSim.Dist(i, j) != wantSim.Dist(i, j) {
				t.Fatalf("similarity (%d,%d) drifted", i, j)
			}
		}
	}
}
