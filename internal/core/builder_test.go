package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hypermine/internal/hypergraph"
	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

func edgeSet(h *hypergraph.H) map[string]float64 {
	out := map[string]float64{}
	for _, e := range h.Edges() {
		out[hypergraph.EdgeKey(e.Tail, e.Head)] = e.Weight
	}
	return out
}

func TestBuildGammaSignificance(t *testing.T) {
	// A perfectly determined pair: C = A (copy), D independent-ish.
	rows := [][]table.Value{
		{1, 1, 1, 2},
		{2, 1, 2, 1},
		{3, 2, 3, 2},
		{1, 2, 1, 1},
		{2, 3, 2, 2},
		{3, 3, 3, 1},
		{1, 1, 1, 2},
		{2, 2, 2, 1},
		{3, 3, 3, 2},
	}
	tb, err := table.FromRows([]string{"A", "B", "C", "D"}, 3, rows)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Build(tb, Config{GammaEdge: 1.5, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// A determines C exactly: ACV({A},{C}) = 1; Null(C) = 3/9 = 1/3,
	// so the edge clears gamma 1.5 easily.
	a, c := tb.AttrIndex("A"), tb.AttrIndex("C")
	if _, ok := model.H.Lookup([]int{a}, []int{c}); !ok {
		t.Error("edge A->C should be admitted")
	}
	if got := model.EdgeACVAt(a, c); !almost(got, 1.0) {
		t.Errorf("ACV(A->C) = %v, want 1", got)
	}
	if err := model.H.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Every admitted directed edge satisfies Definition 3.7.
	for _, e := range model.H.Edges() {
		if len(e.Tail) != 1 {
			continue
		}
		if e.Weight < 1.5*NullACV(tb, e.Head[0])-1e-12 {
			t.Errorf("edge %v violates gamma-significance", e)
		}
	}
	// Every admitted 2-to-1 hyperedge satisfies Definition 3.7
	// against the cached constituent ACVs.
	for _, e := range model.H.Edges() {
		if len(e.Tail) != 2 {
			continue
		}
		maxEdge := model.EdgeACVAt(e.Tail[0], e.Head[0])
		if x := model.EdgeACVAt(e.Tail[1], e.Head[0]); x > maxEdge {
			maxEdge = x
		}
		if e.Weight < 1.0*maxEdge-1e-12 {
			t.Errorf("hyperedge %v violates gamma-significance", e)
		}
	}
}

func TestBuildDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tb := randomTable(rng, 10, 3, 200)
	cfg := Config{GammaEdge: 1.05, GammaPair: 1.0}
	cfg.Parallelism = 1
	m1, err := Build(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	m2, err := Build(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.H.NumEdges() != m2.H.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", m1.H.NumEdges(), m2.H.NumEdges())
	}
	if !reflect.DeepEqual(edgeSet(m1.H), edgeSet(m2.H)) {
		t.Error("edge sets differ across parallelism")
	}
	// Edge insertion order must also be identical (sorted merge).
	for i := range m1.H.Edges() {
		e1, e2 := m1.H.Edge(i), m2.H.Edge(i)
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("edge %d differs: %v vs %v", i, e1, e2)
		}
	}
}

func TestBuildMaxTailSizeOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := randomTable(rng, 6, 3, 100)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0, MaxTailSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.H.Edges() {
		if len(e.Tail) != 1 {
			t.Fatalf("unexpected 2-to-1 edge %v", e)
		}
	}
}

func TestBuildEdgeSeededSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tb := randomTable(rng, 8, 3, 150)
	all, err := Build(tb, Config{GammaEdge: 1.1, GammaPair: 1.02, Candidates: AllPairs})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := Build(tb, Config{GammaEdge: 1.1, GammaPair: 1.02, Candidates: EdgeSeeded})
	if err != nil {
		t.Fatal(err)
	}
	allSet := edgeSet(all.H)
	for k, w := range edgeSet(seeded.H) {
		if got, ok := allSet[k]; !ok || got != w {
			t.Errorf("seeded edge %s not in exhaustive build", k)
		}
	}
	if seeded.H.NumEdges() > all.H.NumEdges() {
		t.Error("seeded build produced more edges than exhaustive")
	}
}

// TestBuildEdgeSeededTripleBases: under EdgeSeeded, stage 2 skips a
// triple none of whose 2-to-1 candidates is seeded, but stage 3 still
// reads such a triple's pair ACVs as bases. Here d = b XOR v, so no
// edge among b, v and d is admitted and their triple has no candidate,
// yet ACV({b,v},{d}) = 1 is the largest base of ({a,b,v},{d}), which
// the admitted ({a,b},{d}) seeds (a copies d in most rows). With that
// base, GammaTriple 1.01 rejects the candidate; the oracle must agree.
func TestBuildEdgeSeededTripleBases(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tb, err := table.New([]string{"a", "b", "v", "d"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for range 400 {
		b, v := rng.Intn(2), rng.Intn(2)
		d, a := b^v, b^v
		if rng.Intn(5) == 0 {
			a = rng.Intn(2)
		}
		if err := tb.AppendRow([]table.Value{table.Value(a + 1), table.Value(b + 1), table.Value(v + 1), table.Value(d + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Build(tb, Config{GammaEdge: 1.1, GammaPair: 1, GammaTriple: 1.01, MaxTailSize: 3, Candidates: EdgeSeeded})
	if err != nil {
		t.Fatal(err)
	}
	const a, b, v, d = 0, 1, 2, 3
	if _, ok := m.H.Lookup([]int{a, b}, []int{d}); !ok {
		t.Fatal("fixture: ({a,b},{d}) not admitted")
	}
	for _, e := range [][2]int{{b, d}, {v, d}, {b, v}, {v, b}, {d, b}, {d, v}} {
		if _, ok := m.H.Lookup(e[:1], e[1:]); ok {
			t.Fatalf("fixture: edge %v admitted", e)
		}
	}
	if diff := admissionDiff(m); diff != "" {
		t.Fatal(diff)
	}
}

func TestBuildConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tb := randomTable(rng, 3, 3, 20)
	cases := []Config{
		{K: 5, GammaEdge: 1.1, GammaPair: 1.1},           // k mismatch
		{GammaEdge: 0.9, GammaPair: 1.1},                 // gamma < 1
		{GammaEdge: 1.1, GammaPair: 0.5},                 // gamma < 1
		{GammaEdge: 1.1, GammaPair: 1.1, MaxTailSize: 4}, // tail too big
		{GammaEdge: math.NaN(), GammaPair: 1.1},          // NaN passes x < 1
		{GammaEdge: 1.1, GammaPair: math.NaN()},
		{GammaEdge: 1.1, GammaPair: 1.1, MaxTailSize: 3, GammaTriple: math.NaN()},
	}
	for i, cfg := range cases {
		if _, err := Build(tb, cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	empty, _ := table.New([]string{"A", "B"}, 3)
	if _, err := Build(empty, Config{GammaEdge: 1, GammaPair: 1}); err == nil {
		t.Error("want error for empty table")
	}
	single, _ := table.FromRows([]string{"A"}, 2, [][]table.Value{{1}})
	if _, err := Build(single, Config{GammaEdge: 1, GammaPair: 1}); err == nil {
		t.Error("want error for single attribute")
	}
}

func TestC1C2Presets(t *testing.T) {
	c1, c2 := C1(), C2()
	if c1.K != 3 || !almost(c1.GammaEdge, 1.15) || !almost(c1.GammaPair, 1.05) {
		t.Errorf("C1 = %+v", c1)
	}
	if c2.K != 5 || !almost(c2.GammaEdge, 1.20) || !almost(c2.GammaPair, 1.12) {
		t.Errorf("C2 = %+v", c2)
	}
}

func TestModelAssociationTableFor(t *testing.T) {
	tb := interestDB(t)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	at, err := m.AssociationTableFor([]int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(at.ACV(), mustACV(t, tb, []int{0, 1}, 2)) {
		t.Error("model AT disagrees with direct computation")
	}
}

func mustACV(t *testing.T, tb *table.Table, tail []int, head int) float64 {
	t.Helper()
	v, err := ACV(tb, tail, head)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBuildAdmissionProperty: Build admits exactly what Definitions
// 3.6 and 3.7 admit, as testutil.MineAdmission counts it straight from
// the rows — the same EdgeACV matrix and the same directed, 2-to-1 and
// 3-to-1 edges in the same order with the same weights — under both
// candidate strategies and every tail size, on the bitmap kernels
// (k <= 8: odd and even lane counts, up to bitsMaxK) and the scalar
// ones (k = 9). Gammas of 1 make ties between
// an ACV and its bound common, so the comparison's direction is pinned
// too.
func TestBuildAdmissionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{2, 3, 4, 5, 8, 9} {
		for maxTail := 1; maxTail <= 3; maxTail++ {
			for _, cand := range []CandidateStrategy{AllPairs, EdgeSeeded} {
				tb := randomTable(rng, 6, k, 40+rng.Intn(100))
				for _, cfg := range []Config{
					{GammaEdge: 1, GammaPair: 1},
					{GammaEdge: 1.1, GammaPair: 1, GammaTriple: 1},
					{GammaEdge: 1 + rng.Float64()*0.3, GammaPair: 1 + rng.Float64()*0.1, GammaTriple: 1 + rng.Float64()*0.1},
				} {
					cfg.MaxTailSize, cfg.Candidates = maxTail, cand
					m, err := Build(tb, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if diff := admissionDiff(m); diff != "" {
						t.Fatalf("k=%d %+v: %s", k, cfg, diff)
					}
				}
			}
		}
	}
}

// admissionDiff compares m against testutil.MineAdmission on m's table
// under m's config; "" means they agree bit for bit.
func admissionDiff(m *Model) string {
	c := m.Config
	want := testutil.MineAdmission(m.Table, testutil.AdmissionConfig{
		GammaEdge: c.GammaEdge, GammaPair: c.GammaPair, GammaTriple: c.GammaTriple,
		MaxTail: c.MaxTailSize, EdgeSeeded: c.Candidates == EdgeSeeded,
	})
	var got []testutil.AdmittedEdge
	for _, e := range m.H.Edges() {
		got = append(got, testutil.AdmittedEdge{Tail: e.Tail, Head: e.Head[0], ACV: e.Weight})
	}
	return want.Diff(m.EdgeACV, got)
}

// Sanity on sorted edge output: 2-to-1 edges appear after directed
// edges and in (a, b, c) order.
func TestBuildEdgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tb := randomTable(rng, 7, 3, 120)
	m, err := Build(tb, Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][3]int
	for _, e := range m.H.Edges() {
		if len(e.Tail) == 2 {
			pairs = append(pairs, [3]int{e.Tail[0], e.Tail[1], e.Head[0]})
		}
	}
	if !sort.SliceIsSorted(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		if pairs[i][1] != pairs[j][1] {
			return pairs[i][1] < pairs[j][1]
		}
		return pairs[i][2] < pairs[j][2]
	}) {
		t.Error("2-to-1 edges not in canonical order")
	}
}
