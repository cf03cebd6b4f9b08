package cover

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hypermine/internal/hypergraph"
)

// chain builds a hypergraph where vertex 0 covers everything through
// directed edges 0 -> i.
func starHypergraph(t *testing.T, n int) *hypergraph.H {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = "v" + string(rune('a'+i))
	}
	h, err := hypergraph.New(names)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := h.AddEdge([]int{0}, []int{i}, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func allVertices(h *hypergraph.H) []int {
	s := make([]int, h.NumVertices())
	for i := range s {
		s[i] = i
	}
	return s
}

func TestDominatorGreedyDSStar(t *testing.T) {
	h := starHypergraph(t, 6)
	res, err := DominatorGreedyDS(h, allVertices(h), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DomSet) != 1 || res.DomSet[0] != 0 {
		t.Errorf("DomSet = %v, want [0]", res.DomSet)
	}
	if res.TargetCovered != 6 || res.CoverageFraction() != 1 {
		t.Errorf("covered %d (%v)", res.TargetCovered, res.CoverageFraction())
	}
	if bad := IsDominator(h, allVertices(h), res.DomSet); len(bad) != 0 {
		t.Errorf("definition 4.1 violated for %v", bad)
	}
}

func TestDominatorSetCoverStar(t *testing.T) {
	h := starHypergraph(t, 6)
	res, err := DominatorSetCover(h, allVertices(h), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DomSet) != 1 || res.DomSet[0] != 0 {
		t.Errorf("DomSet = %v, want [0]", res.DomSet)
	}
	if res.CoverageFraction() != 1 {
		t.Errorf("coverage = %v", res.CoverageFraction())
	}
}

func TestDominatorWithHyperedgePair(t *testing.T) {
	// {0,1} -> 2, {0,1} -> 3: dominator must contain both 0 and 1.
	h, _ := hypergraph.New([]string{"a", "b", "c", "d"})
	_ = h.AddEdge([]int{0, 1}, []int{2}, 0.8)
	_ = h.AddEdge([]int{0, 1}, []int{3}, 0.8)
	s := []int{0, 1, 2, 3}
	for name, run := range map[string]func() (*Result, error){
		"alg5": func() (*Result, error) { return DominatorGreedyDS(h, s, Options{Complete: true}) },
		"alg6": func() (*Result, error) { return DominatorSetCover(h, s, Options{Complete: true}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CoverageFraction() != 1 {
			t.Errorf("%s: coverage %v", name, res.CoverageFraction())
		}
		if bad := IsDominator(h, s, res.DomSet); len(bad) != 0 {
			t.Errorf("%s: uncovered %v with dom %v", name, bad, res.DomSet)
		}
		has0, has1 := false, false
		for _, v := range res.DomSet {
			has0 = has0 || v == 0
			has1 = has1 || v == 1
		}
		if !has0 || !has1 {
			t.Errorf("%s: DomSet %v missing pair members", name, res.DomSet)
		}
	}
}

func TestDominatorPartialCoverage(t *testing.T) {
	// Vertex 3 has no incoming edges: incomplete mode must stop early
	// and report < 100% coverage; complete mode self-covers it.
	h, _ := hypergraph.New([]string{"a", "b", "c", "d"})
	_ = h.AddEdge([]int{0}, []int{1}, 0.9)
	_ = h.AddEdge([]int{0}, []int{2}, 0.9)
	s := allVertices(h)

	res5, err := DominatorGreedyDS(h, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res5.CoverageFraction() >= 1 {
		t.Errorf("alg5 incomplete coverage = %v, want < 1", res5.CoverageFraction())
	}
	res5c, _ := DominatorGreedyDS(h, s, Options{Complete: true})
	if res5c.CoverageFraction() != 1 {
		t.Errorf("alg5 complete coverage = %v, want 1", res5c.CoverageFraction())
	}

	res6, err := DominatorSetCover(h, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res6.CoverageFraction() >= 1 {
		t.Errorf("alg6 incomplete coverage = %v", res6.CoverageFraction())
	}
	res6c, _ := DominatorSetCover(h, s, Options{Complete: true})
	if res6c.CoverageFraction() != 1 {
		t.Errorf("alg6 complete coverage = %v", res6c.CoverageFraction())
	}
}

func TestDominatorValidation(t *testing.T) {
	h := starHypergraph(t, 3)
	if _, err := DominatorGreedyDS(h, nil, Options{}); err == nil {
		t.Error("want error for empty targets")
	}
	if _, err := DominatorGreedyDS(h, []int{0, 0}, Options{}); err == nil {
		t.Error("want error for duplicate targets")
	}
	if _, err := DominatorSetCover(h, []int{99}, Options{}); err == nil {
		t.Error("want error for out-of-range target")
	}
}

func TestEnhancement1PrefersSmallerAddition(t *testing.T) {
	// Two candidates with equal coverage: tail {0} and tail {2,3}.
	// With 0 pre-seeded via an edge pick... construct directly:
	// {0}->1, {2,3}->1. Both alpha: t*={0}: covers 0(self)+1 = 2;
	// t*={2,3}: covers 2,3(self)+1 = 3 -> bigger; so to create a tie
	// make targets = {1} only: t*={0} alpha=1, t*={2,3} alpha=1.
	// Enhancement 1 then prefers {0} (1 new member vs 2).
	h, _ := hypergraph.New([]string{"a", "b", "c", "d"})
	_ = h.AddEdge([]int{2, 3}, []int{1}, 0.9)
	_ = h.AddEdge([]int{0}, []int{1}, 0.9)
	res, err := DominatorSetCover(h, []int{1}, Options{Enhancement1: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DomSet) != 1 || res.DomSet[0] != 0 {
		t.Errorf("DomSet = %v, want [0]", res.DomSet)
	}
	// Without Enhancement 1 the lexicographically first candidate
	// ({0}) also happens to win here, so instead verify both cover.
	res2, _ := DominatorSetCover(h, []int{1}, Options{})
	if res2.CoverageFraction() != 1 {
		t.Error("baseline failed to cover")
	}
}

func TestEnhancement2DropsSubsets(t *testing.T) {
	// After picking {0,1}, candidate {0} (subset) should be dropped
	// with Enhancement 2 — same final coverage either way.
	h, _ := hypergraph.New([]string{"a", "b", "c", "d", "e"})
	_ = h.AddEdge([]int{0, 1}, []int{2}, 0.9)
	_ = h.AddEdge([]int{0, 1}, []int{3}, 0.9)
	_ = h.AddEdge([]int{0}, []int{4}, 0.9)
	s := allVertices(h)
	with, err := DominatorSetCover(h, s, Options{Enhancement2: true, Complete: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := DominatorSetCover(h, s, Options{Complete: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.CoverageFraction() != 1 || without.CoverageFraction() != 1 {
		t.Error("both variants must reach full coverage")
	}
}

// Property: on random hypergraphs both algorithms (complete mode)
// produce dominators under which every covered target satisfies
// Definition 4.1, and coverage is 100%.
func TestDominatorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		names := make([]string, n)
		for i := range names {
			names[i] = "v" + string(rune('0'+i))
		}
		h, _ := hypergraph.New(names)
		for tries := 0; tries < 4*n; tries++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			w := 0.1 + 0.9*rng.Float64()
			if rng.Intn(2) == 0 {
				_ = h.AddEdge([]int{a}, []int{c}, w)
			} else {
				_ = h.AddEdge([]int{a, b}, []int{c}, w)
			}
		}
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		r5, err := DominatorGreedyDS(h, s, Options{Complete: true})
		if err != nil || r5.CoverageFraction() != 1 {
			return false
		}
		if len(IsDominator(h, s, r5.DomSet)) != 0 {
			return false
		}
		for _, opts := range []Options{
			{Complete: true},
			{Complete: true, Enhancement1: true},
			{Complete: true, Enhancement2: true},
			{Complete: true, Enhancement1: true, Enhancement2: true},
		} {
			r6, err := DominatorSetCover(h, s, opts)
			if err != nil || r6.CoverageFraction() != 1 {
				return false
			}
			if len(IsDominator(h, s, r6.DomSet)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestResultTargets: the classifiable targets are the covered vertices
// outside the dominator, ascending whatever the pick order.
func TestResultTargets(t *testing.T) {
	res := &Result{DomSet: []int{4, 0}, Covered: []bool{true, true, false, true, true, false}}
	if got := res.Targets(); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("Targets() = %v, want [1 3]", got)
	}
	if got := (&Result{DomSet: []int{0}, Covered: []bool{true, false}}).Targets(); got != nil {
		t.Fatalf("Targets() of a dominator that covers nothing else = %v, want none", got)
	}
}
