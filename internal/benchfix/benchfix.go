// Package benchfix holds the deterministic workload builders shared by
// the package benchmarks and tests, the fleet sim and its router
// overhead bar (TestRouterOverheadBar), and cmd/loadgen, so they all
// measure the exact same workloads: one home for the fixture's
// attribute naming (AttrName) and correlated row shape (CorrelatedRow),
// no hand-mirrored copies to drift apart. End-to-end numbers come from
// perfbench; perf limits are enforced by the Test…Bar tests beside the
// code they pin.
package benchfix

import (
	"math/rand"

	"hypermine/internal/classify"
	"hypermine/internal/core"
	"hypermine/internal/hypergraph"
	"hypermine/internal/table"
)

// RandomHypergraph builds a deterministic random restricted-model
// hypergraph: edges draw tail sizes uniformly from 1..maxTail (1..3
// covers every packable shape) with a single head.
func RandomHypergraph(seed int64, nv, edges, maxTail int) *hypergraph.H {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, nv)
	for i := range names {
		names[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	h, err := hypergraph.New(names)
	if err != nil {
		panic(err)
	}
	var tail [3]int
	for tries := 0; h.NumEdges() < edges && tries < edges*20; tries++ {
		w := rng.Float64() + 0.01
		size := 1 + rng.Intn(maxTail)
		for i := 0; i < size; i++ {
			tail[i] = rng.Intn(nv)
		}
		// Invalid draws (duplicate ids, tail meeting head) just fail
		// AddEdge and are retried.
		_ = h.AddEdge(tail[:size], []int{rng.Intn(nv)}, w)
	}
	return h
}

// AttrName is the name of attribute j in every benchfix table: "Aaa",
// "Aba", ... "Aza", "Aab", ...
func AttrName(j int) string {
	return "A" + string(rune('a'+j%26)) + string(rune('a'+j/26))
}

// CorrelatedRow fills row with one observation of a k-valued table:
// a base value drawn uniformly, then per attribute either that base
// (probability 2/3) or a fresh uniform draw, so mining admits edges.
// It draws from rng in a fixed order (base, then per attribute a coin
// and, on a miss, a value), which seeded schedules depend on.
func CorrelatedRow[V int | table.Value](rng *rand.Rand, row []V, k int) {
	base := V(1 + rng.Intn(k))
	for j := range row {
		if rng.Intn(3) == 0 {
			row[j] = V(1 + rng.Intn(k))
		} else {
			row[j] = base
		}
	}
}

// ModelWorkload builds the shared serving/classification model: a
// noisy k=3 table of nAttrs attributes and rows CorrelatedRow
// observations, mined under gamma=1. Deterministic for fixed arguments.
func ModelWorkload(nAttrs, rows int) *core.Model {
	rng := rand.New(rand.NewSource(2))
	attrs := make([]string, nAttrs)
	for j := range attrs {
		attrs[j] = AttrName(j)
	}
	tb, err := table.New(attrs, 3)
	if err != nil {
		panic(err)
	}
	row := make([]table.Value, nAttrs)
	for i := 0; i < rows; i++ {
		CorrelatedRow(rng, row, 3)
		if err := tb.AppendRow(row); err != nil {
			panic(err)
		}
	}
	m, err := core.Build(tb, core.Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		panic(err)
	}
	return m
}

// ABCWorkload builds the shared classification workload: the
// ModelWorkload model and an ABC over dominator {0..4} with targets
// {5..10}. nAttrs must be at least 11.
func ABCWorkload(nAttrs, rows int) (*classify.ABC, *table.Table) {
	m := ModelWorkload(nAttrs, rows)
	abc, err := classify.NewABC(m, []int{0, 1, 2, 3, 4}, []int{5, 6, 7, 8, 9, 10})
	if err != nil {
		panic(err)
	}
	return abc, m.Table
}
