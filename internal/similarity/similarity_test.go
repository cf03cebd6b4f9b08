package similarity

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hypermine/internal/hypergraph"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Example 3.12 from the paper: out-sim(A1, A2) = 0.4 / (0.6+0.5+0.7).
func TestExample312OutSim(t *testing.T) {
	h, err := hypergraph.New([]string{"A1", "A2", "A3", "A4", "A5", "A6"})
	if err != nil {
		t.Fatal(err)
	}
	add := func(tail []int, w float64) {
		t.Helper()
		if err := h.AddEdge(tail, []int{5}, w); err != nil {
			t.Fatal(err)
		}
	}
	add([]int{0, 2}, 0.4)    // a = ({A1,A3},{A6})
	add([]int{0, 3}, 0.5)    // b = ({A1,A4},{A6})
	add([]int{1, 2}, 0.6)    // c = ({A2,A3},{A6})
	add([]int{1, 3, 4}, 0.7) // d = ({A2,A4,A5},{A6})
	add([]int{3, 4}, 0.8)    // e = ({A4,A5},{A6})

	got := OutSim(h, 0, 1)
	want := 0.4 / (0.6 + 0.5 + 0.7)
	if !almost(got, want) {
		t.Errorf("out-sim(A1,A2) = %v, want %v (~0.22)", got, want)
	}
	// Symmetry.
	if !almost(OutSim(h, 1, 0), want) {
		t.Error("out-sim not symmetric")
	}
}

func TestInSimBasic(t *testing.T) {
	h, _ := hypergraph.New([]string{"A", "B", "X", "Y"})
	// X and Y share the incoming tail {A}; only X has {B}.
	_ = h.AddEdge([]int{0}, []int{2}, 0.6) // A -> X
	_ = h.AddEdge([]int{0}, []int{3}, 0.4) // A -> Y
	_ = h.AddEdge([]int{1}, []int{2}, 0.8) // B -> X
	got := InSim(h, 2, 3)
	want := 0.4 / (0.6 + 0.8)
	if !almost(got, want) {
		t.Errorf("in-sim(X,Y) = %v, want %v", got, want)
	}
	if !almost(InSim(h, 3, 2), want) {
		t.Error("in-sim not symmetric")
	}
}

func TestSimIdenticalAndDisjoint(t *testing.T) {
	h, _ := hypergraph.New([]string{"A", "B", "C", "D"})
	_ = h.AddEdge([]int{0}, []int{2}, 0.5)
	if got := OutSim(h, 0, 0); got != 1 {
		t.Errorf("out-sim(A,A) = %v, want 1", got)
	}
	if got := OutSim(h, 3, 3); got != 0 {
		t.Errorf("out-sim of edge-less vertex with itself = %v, want 0", got)
	}
	// No shared structure at all: 0.
	if got := OutSim(h, 1, 3); got != 0 {
		t.Errorf("out-sim with no edges = %v, want 0", got)
	}
	if got := InSim(h, 0, 1); got != 0 {
		t.Errorf("in-sim with no incoming = %v, want 0", got)
	}
}

// Substitution that would produce a duplicate tail member must count
// as unmatched, not panic or collapse.
func TestOutSimCollidingSubstitution(t *testing.T) {
	h, _ := hypergraph.New([]string{"A", "B", "C", "X"})
	_ = h.AddEdge([]int{0, 1}, []int{3}, 0.9) // {A,B} -> X
	_ = h.AddEdge([]int{1, 2}, []int{3}, 0.7) // {B,C} -> X
	// out-sim(A,B): e={A,B}->X substituting A->B gives {B,B}: invalid.
	// f={A,B}->X from out(B) substituting B->A gives {A,A}: invalid.
	// f={B,C}->X substituting B->A gives {A,C}->X which is absent.
	got := OutSim(h, 0, 1)
	if !almost(got, 0) {
		t.Errorf("out-sim = %v, want 0", got)
	}
}

// In-sim must not match an edge whose substituted head collides with
// its own tail.
func TestInSimHeadTailCollision(t *testing.T) {
	h, _ := hypergraph.New([]string{"A", "X", "Y"})
	_ = h.AddEdge([]int{0}, []int{1}, 0.5) // A -> X
	_ = h.AddEdge([]int{1}, []int{2}, 0.5) // X -> Y ; substituting Y->X gives X->X
	got := InSim(h, 2, 1)
	// in(Y) = {X->Y}: substituted head X collides with tail -> unmatched (0.5 in den).
	// in(X) = {A->X}: substituted A->Y absent -> 0.5 in den.
	if !almost(got, 0) {
		t.Errorf("in-sim = %v, want 0", got)
	}
}

func TestDistanceAndGraph(t *testing.T) {
	h, _ := hypergraph.New([]string{"A", "B", "C", "X"})
	_ = h.AddEdge([]int{0}, []int{3}, 0.5)
	_ = h.AddEdge([]int{1}, []int{3}, 0.5)
	build := func(s []int) (*Graph, error) {
		return BuildGraphContext(context.Background(), h, s, GraphOptions{})
	}
	g, err := build([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// A and B have identical out-structure onto X: out-sim = 1, in-sim = 0.
	if want := 1 - 0.5/1; !almost(g.Dist(0, 1), want) {
		t.Errorf("d(A,B) = %v, want %v", g.Dist(0, 1), want)
	}
	if g.Dist(0, 0) != 0 {
		t.Error("self distance must be 0")
	}
	if !almost(g.Dist(0, 2), 1) {
		t.Errorf("d(A,C) = %v, want 1", g.Dist(0, 2))
	}
	if g.MeanDistance() <= 0 {
		t.Error("mean distance should be positive")
	}
	if _, err := build(nil); err == nil {
		t.Error("want error for empty collection")
	}
	if _, err := build([]int{99}); err == nil {
		t.Error("want error for bad vertex")
	}
}

func TestEuclideanSim(t *testing.T) {
	a := []float64{1, 0, 0}
	if got, err := EuclideanSim(a, a); err != nil || !almost(got, 1) {
		t.Errorf("ES(a,a) = %v, %v", got, err)
	}
	b := []float64{-1, 0, 0}
	// Opposite unit vectors: ED = 2 -> ES = 0.
	if got, err := EuclideanSim(a, b); err != nil || !almost(got, 0) {
		t.Errorf("ES(a,-a) = %v, %v", got, err)
	}
	c := []float64{0, 1, 0}
	// Orthogonal: ED = sqrt(2) -> ES = 1 - sqrt2/2.
	if got, _ := EuclideanSim(a, c); !almost(got, 1-math.Sqrt2/2) {
		t.Errorf("ES orth = %v", got)
	}
	if _, err := EuclideanSim(a, []float64{1}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := EuclideanSim(nil, nil); err == nil {
		t.Error("want error for empty series")
	}
	if _, err := EuclideanSim([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Error("want error for zero-norm series")
	}
}

func randomHypergraph(rng *rand.Rand, n int) *hypergraph.H {
	names := make([]string, n)
	for i := range names {
		names[i] = "v" + string(rune('0'+i))
	}
	h, _ := hypergraph.New(names)
	for tries := 0; tries < 8*n; tries++ {
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		w := 0.05 + 0.95*rng.Float64()
		if rng.Intn(2) == 0 {
			_ = h.AddEdge([]int{a}, []int{c}, w)
		} else {
			_ = h.AddEdge([]int{a, b}, []int{c}, w)
		}
	}
	return h
}

// Properties on random hypergraphs: similarities are symmetric and in
// [0,1]; distances lie in [0,1].
func TestSimilarityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		h := randomHypergraph(rng, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				os, is := OutSim(h, i, j), InSim(h, i, j)
				if os < 0 || os > 1+1e-12 || is < 0 || is > 1+1e-12 {
					return false
				}
				if !almost(os, OutSim(h, j, i)) || !almost(is, InSim(h, j, i)) {
					return false
				}
				d := Distance(h, i, j)
				if d < -1e-12 || d > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTriangleViolationsDetects(t *testing.T) {
	g := &Graph{Nodes: []int{0, 1, 2}, D: [][]float64{
		{0, 1.0, 0.1},
		{1.0, 0, 0.1},
		{0.1, 0.1, 0},
	}}
	if got := g.TriangleViolations(1e-9); got == 0 {
		t.Error("expected triangle violations for 1.0 > 0.2")
	}
	ok := &Graph{Nodes: []int{0, 1, 2}, D: [][]float64{
		{0, 0.5, 0.5},
		{0.5, 0, 0.5},
		{0.5, 0.5, 0},
	}}
	if got := ok.TriangleViolations(1e-9); got != 0 {
		t.Errorf("unexpected violations: %d", got)
	}
}
