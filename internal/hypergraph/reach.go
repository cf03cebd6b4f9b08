package hypergraph

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ForwardClosure computes the B-closure of a seed vertex set: the
// fixpoint of "a vertex is determined when some hyperedge's entire
// tail is determined". This generalizes the one-step coverage of
// Definition 4.1 to transitive inference — if a dominator determines
// X, and X together with other determined vertices determines Y, then
// Y is (transitively) determined too. It is the B-connectivity notion
// of the directed-hypergraph literature the paper builds on [GLPN93,
// TT09].
//
// The returned slice marks every determined vertex, seeds included.
// Runs in O(|E| + total tail size) via the standard counter algorithm.
func (h *H) ForwardClosure(seed []int) ([]bool, error) {
	determined := make([]bool, len(h.out))
	var queue []int
	for _, v := range seed {
		if v < 0 || v >= len(h.out) {
			return nil, fmt.Errorf("hypergraph: seed vertex %d out of range", v)
		}
		if !determined[v] {
			determined[v] = true
			queue = append(queue, v)
		}
	}
	// remaining[e] counts tail vertices of e not yet processed. Every
	// determined vertex is queued exactly once and decrements each of
	// its out-edges exactly once (tails hold distinct vertices), so an
	// edge fires precisely when its whole tail is determined.
	remaining := make([]int, len(h.edges))
	for i, e := range h.edges {
		remaining[i] = len(e.Tail)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, ei := range h.out[v] {
			remaining[ei]--
			if remaining[ei] == 0 {
				for _, u := range h.edges[ei].Head {
					if !determined[u] {
						determined[u] = true
						queue = append(queue, u)
					}
				}
			}
		}
	}
	return determined, nil
}

// Transpose returns the hypergraph with every edge reversed (tails and
// heads swapped). Useful for "what determines v" queries via forward
// algorithms.
func (h *H) Transpose() *H {
	out := NewOver(h.schema)
	for _, e := range h.edges {
		// Tail/head validity is symmetric, so this cannot fail.
		_ = out.AddEdge(e.Head, e.Tail, e.Weight)
	}
	return out
}

// InducedSubgraph returns the hypergraph on the same vertex set
// containing only edges whose tail and head vertices all belong to
// keep.
func (h *H) InducedSubgraph(keep []int) (*H, error) {
	in := make([]bool, len(h.out))
	for _, v := range keep {
		if v < 0 || v >= len(h.out) {
			return nil, fmt.Errorf("hypergraph: vertex %d out of range", v)
		}
		in[v] = true
	}
	out := NewOver(h.schema)
	for _, e := range h.edges {
		ok := true
		for _, v := range e.Tail {
			if !in[v] {
				ok = false
				break
			}
		}
		if ok {
			for _, v := range e.Head {
				if !in[v] {
					ok = false
					break
				}
			}
		}
		if ok {
			_ = out.AddEdge(e.Tail, e.Head, e.Weight)
		}
	}
	return out, nil
}

// WriteDOT emits a Graphviz rendering of the hypergraph: directed
// edges become plain arcs; larger tails become a point-shaped junction
// node with arcs from each tail vertex and one arc to the head (the
// usual directed-hypergraph drawing, and how Figure 5.3-style visuals
// are produced).
func (h *H) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "H"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=LR;\n  node [shape=ellipse];\n")
	for v := range h.out {
		fmt.Fprintf(&sb, "  v%d [label=%q];\n", v, h.schema.Name(v))
	}
	for i, e := range h.edges {
		if len(e.Tail) == 1 && len(e.Head) == 1 {
			fmt.Fprintf(&sb, "  v%d -> v%d [label=\"%.2f\"];\n", e.Tail[0], e.Head[0], e.Weight)
			continue
		}
		fmt.Fprintf(&sb, "  j%d [shape=point,width=0.06];\n", i)
		tails := append([]int(nil), e.Tail...)
		sort.Ints(tails)
		for _, t := range tails {
			fmt.Fprintf(&sb, "  v%d -> j%d [arrowhead=none];\n", t, i)
		}
		for _, hd := range e.Head {
			fmt.Fprintf(&sb, "  j%d -> v%d [label=\"%.2f\"];\n", i, hd, e.Weight)
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
