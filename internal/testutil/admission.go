package testutil

import (
	"fmt"
	"math"
	"slices"

	"hypermine/internal/table"
)

// AdmissionConfig is the part of core.Config that decides admission,
// with no defaults applied.
type AdmissionConfig struct {
	GammaEdge, GammaPair, GammaTriple float64
	// MaxTail is 1, 2 or 3.
	MaxTail int
	// EdgeSeeded admits a 2-to-1 edge ({a,b},{c}) only when a->c or
	// b->c is admitted (core.EdgeSeeded).
	EdgeSeeded bool
}

// AdmittedEdge is one admitted hyperedge (Tail, {Head}) with its ACV.
type AdmittedEdge struct {
	Tail []int
	Head int
	ACV  float64
}

// Admission is what the association-hypergraph builder must produce
// for a table: the ACV({a},{c}) of every ordered attribute pair, at
// EdgeACV[a*n+c], and every admitted edge in the builder's order
// (directed edges by (a, c), then 2-to-1 edges by (a, b, c), then
// 3-to-1 edges by (a, b, c, d)).
type Admission struct {
	EdgeACV []float64
	Edges   []AdmittedEdge
}

// MineAdmission is an oracle for the builder that shares none of its
// code. It counts each (tail, head) contingency table from the rows
// with a map and applies Definitions 3.6 and 3.7 of the source paper
// literally: an edge is admitted iff its ACV is at least gamma times
// its baseline (Maj(c)/M for a directed edge, the largest ACV of the
// tail's one-smaller subsets otherwise). A 3-to-1 edge is a candidate
// only when one of its constituent 2-to-1 edges is admitted, and
// under EdgeSeeded a 2-to-1 edge only when one of its directed edges
// is. Every test size is small, so it rescans the rows per ACV.
func MineAdmission(tb *table.Table, cfg AdmissionConfig) Admission {
	n := tb.NumAttrs()
	out := Admission{EdgeACV: make([]float64, n*n)}
	admitted := map[[4]int]bool{} // sorted tail padded with -1, then head
	admit := func(acv, gamma, base float64, head int, tail ...int) {
		if acv >= gamma*base {
			key := [4]int{-1, -1, -1, head}
			copy(key[:], tail)
			admitted[key] = true
			out.Edges = append(out.Edges, AdmittedEdge{slices.Clone(tail), head, acv})
		}
	}
	was := func(head int, tail ...int) bool {
		key := [4]int{-1, -1, -1, head}
		copy(key[:], tail)
		return admitted[key]
	}
	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			if a != c {
				out.EdgeACV[a*n+c] = contingencyACV(tb, c, a)
				admit(out.EdgeACV[a*n+c], cfg.GammaEdge, contingencyACV(tb, c), c, a)
			}
		}
	}
	if cfg.MaxTail < 2 {
		return out
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := 0; c < n; c++ {
				if c == a || c == b || cfg.EdgeSeeded && !was(c, a) && !was(c, b) {
					continue
				}
				base := max(contingencyACV(tb, c, a), contingencyACV(tb, c, b))
				admit(contingencyACV(tb, c, a, b), cfg.GammaPair, base, c, a, b)
			}
		}
	}
	if cfg.MaxTail < 3 {
		return out
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				for d := 0; d < n; d++ {
					if d == a || d == b || d == c || !was(d, a, b) && !was(d, a, c) && !was(d, b, c) {
						continue
					}
					base := max(contingencyACV(tb, d, a, b), contingencyACV(tb, d, a, c), contingencyACV(tb, d, b, c))
					admit(contingencyACV(tb, d, a, b, c), cfg.GammaTriple, base, d, a, b, c)
				}
			}
		}
	}
	return out
}

// contingencyACV is Definition 3.6: the sum, over the combinations of
// tail values, of the largest count of one head value among the rows
// holding that combination, over the row count. An empty tail gives
// the baseline Maj(head)/M.
func contingencyACV(tb *table.Table, head int, tail ...int) float64 {
	joint := map[[4]table.Value]int{} // tail values, then the head value
	best := map[[3]table.Value]int{}  // per tail combination
	sum := 0
	for i := 0; i < tb.NumRows(); i++ {
		var tv [3]table.Value
		for j, a := range tail {
			tv[j] = tb.Column(a)[i]
		}
		key := [4]table.Value{tv[0], tv[1], tv[2], tb.Column(head)[i]}
		joint[key]++
		if c := joint[key]; c > best[tv] {
			sum += c - best[tv]
			best[tv] = c
		}
	}
	return float64(sum) / float64(tb.NumRows())
}

// Diff describes the first difference between a mined model's
// EdgeACV matrix and edge list and the oracle's, comparing float bits;
// it returns "" when they agree.
func (want Admission) Diff(edgeACV []float64, edges []AdmittedEdge) string {
	if len(edgeACV) != len(want.EdgeACV) {
		return fmt.Sprintf("EdgeACV has %d cells, want %d", len(edgeACV), len(want.EdgeACV))
	}
	for i, w := range want.EdgeACV {
		if math.Float64bits(edgeACV[i]) != math.Float64bits(w) {
			return fmt.Sprintf("EdgeACV[%d] = %.17g, want %.17g", i, edgeACV[i], w)
		}
	}
	for i := range min(len(edges), len(want.Edges)) {
		g, w := edges[i], want.Edges[i]
		if !slices.Equal(g.Tail, w.Tail) || g.Head != w.Head || math.Float64bits(g.ACV) != math.Float64bits(w.ACV) {
			return fmt.Sprintf("edge %d is %v->%d (%.17g), want %v->%d (%.17g)", i, g.Tail, g.Head, g.ACV, w.Tail, w.Head, w.ACV)
		}
	}
	if len(edges) != len(want.Edges) {
		return fmt.Sprintf("%d edges, want %d", len(edges), len(want.Edges))
	}
	return ""
}
