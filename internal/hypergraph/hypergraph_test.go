package hypergraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func newH(t *testing.T, names ...string) *H {
	t.Helper()
	h, err := New(names)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("want error for no vertices")
	}
	if _, err := New([]string{"A", "A"}); err == nil {
		t.Error("want error for duplicate vertex")
	}
	if _, err := New([]string{""}); err == nil {
		t.Error("want error for empty name")
	}
}

func TestAddEdgeInvariants(t *testing.T) {
	h := newH(t, "A", "B", "C")
	if err := h.AddEdge([]int{0}, []int{1}, 0.5); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		tail, head []int
	}{
		{"empty tail", nil, []int{1}},
		{"empty head", []int{0}, nil},
		{"overlap", []int{0, 1}, []int{1}},
		{"tail out of range", []int{9}, []int{1}},
		{"head out of range", []int{0}, []int{9}},
		{"negative id", []int{-1}, []int{1}},
		{"duplicate tail vertex", []int{0, 0}, []int{1}},
		{"duplicate head vertex", []int{0}, []int{1, 1}},
		{"duplicate edge", []int{0}, []int{1}},
	}
	for _, c := range cases {
		if err := h.AddEdge(c.tail, c.head, 1); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	if h.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", h.NumEdges())
	}
}

// TestReserve: Reserve only sizes an empty graph; on a graph with
// edges it must keep every index entry, and degree hints that run
// short must not let one vertex's incidence list overwrite another's.
func TestReserve(t *testing.T) {
	h := newH(t, "A", "B", "C")
	h.Reserve(2, []int{1, 0, 0}, []int{0, 1, 0})
	if err := h.AddEdge([]int{0}, []int{1}, 0.5); err != nil {
		t.Fatal(err)
	}
	h.Reserve(8, nil, nil)
	for _, e := range []struct{ tail, head []int }{{[]int{0}, []int{2}}, {[]int{1, 0}, []int{2}}} {
		if err := h.AddEdge(e.tail, e.head, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	if i, ok := h.Lookup([]int{0}, []int{1}); !ok || i != 0 {
		t.Fatalf("Lookup after Reserve = %d, %v", i, ok)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeKeyCanonical(t *testing.T) {
	if EdgeKey([]int{2, 1}, []int{3}) != EdgeKey([]int{1, 2}, []int{3}) {
		t.Error("tail order should not matter")
	}
	if EdgeKey([]int{1}, []int{3}) == EdgeKey([]int{3}, []int{1}) {
		t.Error("direction must matter")
	}
	if EdgeKey([]int{1, 2}, []int{3}) == EdgeKey([]int{1}, []int{2, 3}) {
		t.Error("tail/head boundary must matter")
	}
	if EdgeKey([]int{12}, []int{3}) == EdgeKey([]int{1, 2}, []int{3}) {
		t.Error("multi-digit ids must not collide with pairs")
	}
	if EdgeKey([]int{5, 4, 3}, []int{9}) != EdgeKey([]int{3, 4, 5}, []int{9}) {
		t.Error("triple tails should canonicalize")
	}
}

func TestLookupWeightAndIncidence(t *testing.T) {
	h := newH(t, "A", "B", "C", "D")
	mustAdd := func(tail, head []int, w float64) {
		t.Helper()
		if err := h.AddEdge(tail, head, w); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd([]int{0}, []int{2}, 0.4)
	mustAdd([]int{1, 0}, []int{2}, 0.6) // unsorted on purpose
	mustAdd([]int{2}, []int{3}, 0.9)

	if i, ok := h.Lookup([]int{0, 1}, []int{2}); !ok || h.Edge(i).Weight != 0.6 {
		t.Error("Lookup with sorted tail failed")
	}
	if _, ok := h.Lookup([]int{0, 3}, []int{2}); ok {
		t.Error("Lookup found nonexistent edge")
	}
	if w := h.Weight([]int{1, 0}, []int{2}); w != 0.6 {
		t.Errorf("Weight = %v", w)
	}
	if w := h.Weight([]int{3}, []int{0}); w != 0 {
		t.Errorf("absent Weight = %v, want 0", w)
	}
	if len(h.Out(0)) != 2 || len(h.In(2)) != 2 || len(h.Out(3)) != 0 {
		t.Error("incidence lists wrong")
	}

	// Weighted degrees per §5.2.
	if got := h.WeightedInDegree(2); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("WeightedInDegree(C) = %v, want 1.0", got)
	}
	// out(A): 0.4/1 + 0.6/2 = 0.7
	if got := h.WeightedOutDegree(0); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("WeightedOutDegree(A) = %v, want 0.7", got)
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEdgeClassPredicates(t *testing.T) {
	e1 := Edge{Tail: []int{0}, Head: []int{1}}
	e2 := Edge{Tail: []int{0, 2}, Head: []int{1}}
	e3 := Edge{Tail: []int{0, 2, 3}, Head: []int{1}}
	if !e1.IsDirectedEdge() || e1.IsTwoToOne() {
		t.Error("e1 misclassified")
	}
	if e2.IsDirectedEdge() || !e2.IsTwoToOne() {
		t.Error("e2 misclassified")
	}
	if e3.IsDirectedEdge() || e3.IsTwoToOne() {
		t.Error("e3 misclassified")
	}
}

func TestFilterByWeightAndTopFraction(t *testing.T) {
	h := newH(t, "A", "B", "C", "D")
	weights := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	tails := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}}
	heads := [][]int{{1}, {2}, {3}, {3}, {3}}
	for i := range weights {
		if err := h.AddEdge(tails[i], heads[i], weights[i]); err != nil {
			t.Fatal(err)
		}
	}
	th, err := h.TopFractionThreshold(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if th != 0.4 {
		t.Errorf("threshold = %v, want 0.4", th)
	}
	f := h.FilterByWeight(th)
	if f.NumEdges() != 2 {
		t.Errorf("filtered edges = %d, want 2", f.NumEdges())
	}
	if err := f.Validate(); err != nil {
		t.Errorf("filtered Validate: %v", err)
	}
	if _, err := h.TopFractionThreshold(0); err == nil {
		t.Error("want error for frac=0")
	}
	if _, err := h.TopFractionThreshold(1.5); err == nil {
		t.Error("want error for frac>1")
	}
	empty := newH(t, "A")
	if _, err := empty.TopFractionThreshold(0.5); err == nil {
		t.Error("want error for empty graph")
	}
}

func TestEdgeStats(t *testing.T) {
	h := newH(t, "A", "B", "C", "D")
	_ = h.AddEdge([]int{0}, []int{1}, 0.4)
	_ = h.AddEdge([]int{1}, []int{2}, 0.6)
	_ = h.AddEdge([]int{0, 1}, []int{2}, 0.8)
	_ = h.AddEdge([]int{0, 1, 2}, []int{3}, 0.9)
	st := h.EdgeStats()
	if st.DirectedEdges != 2 || st.TwoToOne != 1 || st.Other != 1 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.MeanACVEdges-0.5) > 1e-12 || math.Abs(st.MeanACVTwoToOne-0.8) > 1e-12 {
		t.Errorf("means = %+v", st)
	}
}

// Property: random graphs always validate; degree identities hold
// (sum of weighted in-degrees == sum of weights == sum of weighted
// out-degrees, since every edge has |H|=1 and out shares are w/|T|).
func TestDegreeConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		names := make([]string, n)
		for i := range names {
			names[i] = "v" + string(rune('0'+i))
		}
		h, err := New(names)
		if err != nil {
			return false
		}
		var total float64
		for tries := 0; tries < 60; tries++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			w := rng.Float64()
			var e error
			if rng.Intn(2) == 0 {
				e = h.AddEdge([]int{a}, []int{c}, w)
			} else {
				e = h.AddEdge([]int{a, b}, []int{c}, w)
			}
			if e == nil {
				total += w
			}
		}
		if err := h.Validate(); err != nil {
			return false
		}
		var inSum, outSum float64
		for v := 0; v < n; v++ {
			inSum += h.WeightedInDegree(v)
			outSum += h.WeightedOutDegree(v)
		}
		return math.Abs(inSum-total) < 1e-9 && math.Abs(outSum-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
