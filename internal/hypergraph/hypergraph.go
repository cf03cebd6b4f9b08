// Package hypergraph implements the directed hypergraph substrate of
// Definition 2.9: a finite vertex set and directed hyperedges (T, H)
// with nonempty, disjoint tail and head sets. Edges carry float64
// weights (the association confidence values of Definition 3.6 when
// used by internal/core).
//
// The package is general — tails and heads of any size are accepted —
// although the paper's restricted association hypergraphs only use
// |T| <= 2 and |H| = 1.
package hypergraph

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hypermine/internal/schema"
)

// Edge is a directed hyperedge (T, H) with a weight. Tail and Head are
// sorted slices of vertex ids and are canonical. AddEdge stores private
// copies; AddEdgeShared stores slices the graph shares with their owner
// (a donor graph, or the id slab of a build or a snapshot decode).
// Either way they are read-only once the edge is stored.
type Edge struct {
	Tail   []int
	Head   []int
	Weight float64
}

// IsDirectedEdge reports |T| == 1 (the paper's "directed edge").
func (e Edge) IsDirectedEdge() bool { return len(e.Tail) == 1 }

// IsTwoToOne reports |T| == 2 && |H| == 1 (the paper's "2-to-1
// directed hyperedge").
func (e Edge) IsTwoToOne() bool { return len(e.Tail) == 2 && len(e.Head) == 1 }

// H is a directed hypergraph over named vertices.
type H struct {
	schema *schema.Names
	edges  []Edge
	out    [][]int32 // vertex id -> indexes of edges whose tail contains it
	in     [][]int32 // vertex id -> indexes of edges whose head contains it

	// Each edge lives in exactly one key index: pkeys, the flat
	// table of keyindex.go, when the (tail, head) pair is packable
	// (see packed.go — every edge of the restricted model), keys
	// otherwise (general edges, the string-key fallback, made on the
	// first such edge). Lookup decides per probe via PackEdgeKey.
	pkeys keyIndex
	keys  map[string]int32
}

// New returns an empty hypergraph over the given vertex names.
func New(names []string) (*H, error) {
	s, err := schema.New(names)
	if err != nil {
		return nil, fmt.Errorf("hypergraph: %w", err)
	}
	return NewOver(s), nil
}

// NewOver returns an empty hypergraph whose vertices are the names of
// s, which it shares: a graph mined from a table is built over the
// table's schema.
func NewOver(s *schema.Names) *H {
	return &H{
		schema: s,
		out:    make([][]int32, s.Len()),
		in:     make([][]int32, s.Len()),
	}
}

// Schema returns the vertex names as a schema.
func (h *H) Schema() *schema.Names { return h.schema }

// NumVertices returns |V|.
func (h *H) NumVertices() int { return len(h.out) }

// NumEdges returns |E|.
func (h *H) NumEdges() int { return len(h.edges) }

// VertexName returns the name of vertex id v.
func (h *H) VertexName(v int) string { return h.schema.Name(v) }

// VertexNames returns a copy of all vertex names in id order.
func (h *H) VertexNames() []string { return h.schema.Names() }

// Vertex returns the id of the named vertex, or -1.
func (h *H) Vertex(name string) int { return h.schema.Index(name) }

// EdgeKey returns the canonical string key of a (tail, head) pair. The
// slices need not be sorted.
func EdgeKey(tail, head []int) string {
	var sb strings.Builder
	writeSorted(&sb, tail)
	sb.WriteByte('>')
	writeSorted(&sb, head)
	return sb.String()
}

func writeSorted(sb *strings.Builder, ids []int) {
	switch len(ids) {
	case 0:
	case 1:
		sb.WriteString(strconv.Itoa(ids[0]))
	case 2:
		a, b := ids[0], ids[1]
		if a > b {
			a, b = b, a
		}
		sb.WriteString(strconv.Itoa(a))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(b))
	default:
		s := append([]int(nil), ids...)
		sort.Ints(s)
		for i, v := range s {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(v))
		}
	}
}

func sortedCopy(ids []int) []int {
	s := append([]int(nil), ids...)
	sort.Ints(s)
	return s
}

// validSets checks Definition 2.9's conditions on a (tail, head) pair
// and returns the first violation in tail-then-head order. Each id is
// compared with the ids before it, which for the small sets of mined
// edges is cheaper than a set.
func validSets(nv int, tail, head []int) error {
	if len(tail) == 0 || len(head) == 0 {
		return errors.New("hypergraph: tail and head must be nonempty")
	}
	for i, v := range tail {
		if v < 0 || v >= nv {
			return fmt.Errorf("hypergraph: tail vertex %d out of range", v)
		}
		if containsInt(tail[:i], v) {
			return fmt.Errorf("hypergraph: duplicate tail vertex %d", v)
		}
	}
	for i, v := range head {
		if v < 0 || v >= nv {
			return fmt.Errorf("hypergraph: head vertex %d out of range", v)
		}
		if containsInt(head[:i], v) {
			return fmt.Errorf("hypergraph: duplicate head vertex %d", v)
		}
		if containsInt(tail, v) {
			return fmt.Errorf("hypergraph: vertex %d in both tail and head", v)
		}
	}
	return nil
}

// Reserve sizes an empty graph for n edges, so a caller that knows
// its edges up front grows nothing while adding them: the edge list
// and the packed key index hold n, and vertex v's incidence lists,
// carved from one slab, hold outDeg[v] and inDeg[v] edges (the number
// of tails and heads that will list v). It is a hint: it does nothing
// once the graph has edges, degree slices of the wrong length leave
// the incidence lists to grow, and adding more edges still works.
func (h *H) Reserve(n int, outDeg, inDeg []int) {
	if len(h.edges) > 0 {
		return
	}
	h.edges = make([]Edge, 0, n)
	h.pkeys.reserve(n)
	if len(outDeg) != len(h.out) || len(inDeg) != len(h.out) {
		return
	}
	total := 0
	for v := range h.out {
		total += outDeg[v] + inDeg[v]
	}
	slab := make([]int32, total)
	for v := range h.out {
		h.out[v], slab = slab[:0:outDeg[v]], slab[outDeg[v]:]
		h.in[v], slab = slab[:0:inDeg[v]], slab[inDeg[v]:]
	}
}

// AddEdge inserts the directed hyperedge (tail, head) with the given
// weight. It enforces Definition 2.9 (nonempty, disjoint sets) and
// rejects duplicate (tail, head) pairs. The graph stores sorted copies
// of tail and head.
func (h *H) AddEdge(tail, head []int, weight float64) error {
	if err := validSets(len(h.out), tail, head); err != nil {
		return err
	}
	return h.insert(sortedCopy(tail), sortedCopy(head), weight)
}

// AddEdgeShared is AddEdge for canonical slices the caller hands over
// without a copy: tail and head must already be sorted ascending, and
// they are stored as given. Two owners in internal/core use it. The
// edge assembly step of core.MineStages stores capped sub-slices of
// one id slab per full build, and, for the incremental re-miner in
// internal/delta, shares the vertex-id slices of edges that persist
// across a delta update with the previous model's H, so a republished
// model costs only the edges that actually changed. The snapshot
// decoder stores capped sub-slices of one id slab per snapshot. Either
// slab costs one allocation for all edges instead of two per edge.
// The caller must never mutate the slices after the call (the donor
// H's invariants also forbid it, so sharing edges between immutable
// models is safe).
func (h *H) AddEdgeShared(tail, head []int, weight float64) error {
	if err := validSets(len(h.out), tail, head); err != nil {
		return err
	}
	if !sort.IntsAreSorted(tail) || !sort.IntsAreSorted(head) {
		return fmt.Errorf("hypergraph: AddEdgeShared requires sorted slices for edge %s", h.formatEdge(tail, head))
	}
	return h.insert(tail, head, weight)
}

// insert stores a validated edge with sorted tail and head under the
// next edge id: its key, the edge, and its incidence entries.
func (h *H) insert(tail, head []int, weight float64) error {
	id := int32(len(h.edges))
	if pk, ok := PackEdgeKey(tail, head); ok {
		if !h.pkeys.add(pk) {
			return fmt.Errorf("hypergraph: duplicate edge %s", h.formatEdge(tail, head))
		}
	} else {
		key := EdgeKey(tail, head)
		if _, dup := h.keys[key]; dup {
			return fmt.Errorf("hypergraph: duplicate edge %s", h.formatEdge(tail, head))
		}
		if h.keys == nil {
			h.keys = make(map[string]int32)
		}
		h.keys[key] = id
		h.pkeys.add(0)
	}
	h.edges = append(h.edges, Edge{Tail: tail, Head: head, Weight: weight})
	for _, v := range tail {
		h.out[v] = append(h.out[v], id)
	}
	for _, v := range head {
		h.in[v] = append(h.in[v], id)
	}
	return nil
}

func (h *H) formatEdge(tail, head []int) string {
	name := func(ids []int) string {
		parts := make([]string, len(ids))
		for i, v := range ids {
			if v >= 0 && v < len(h.out) {
				parts[i] = h.schema.Name(v)
			} else {
				parts[i] = strconv.Itoa(v)
			}
		}
		return strings.Join(parts, ",")
	}
	return "{" + name(tail) + "} -> {" + name(head) + "}"
}

// Edge returns edge i by value.
func (h *H) Edge(i int) Edge { return h.edges[i] }

// Edges returns the backing edge slice. Treat it as read-only.
func (h *H) Edges() []Edge { return h.edges }

// Lookup returns the index of the edge with the given tail and head
// sets, and whether it exists. For packable pairs (|T| <= 3, |H| == 1,
// ids within MaxPackedID — every edge of the paper's restricted model)
// the probe is a walk of the flat packed-key table with zero heap
// allocation; other shapes fall back to the string-keyed map.
//
//hyper:noalloc
func (h *H) Lookup(tail, head []int) (int, bool) {
	if pk, ok := PackEdgeKey(tail, head); ok {
		id, found := h.pkeys.get(pk)
		return int(id), found
	}
	id, found := h.keys[EdgeKey(tail, head)]
	return int(id), found
}

// Weight returns the weight of (tail, head), or 0 if absent.
//
//hyper:noalloc
func (h *H) Weight(tail, head []int) float64 {
	if i, ok := h.Lookup(tail, head); ok {
		return h.edges[i].Weight
	}
	return 0
}

// Out returns the indexes of edges whose tail contains v. Read-only.
func (h *H) Out(v int) []int32 { return h.out[v] }

// In returns the indexes of edges whose head contains v. Read-only.
func (h *H) In(v int) []int32 { return h.in[v] }

// WeightedInDegree returns sum over edges e with v in H(e) of w(e)
// (§5.2: the predictability of v).
func (h *H) WeightedInDegree(v int) float64 {
	var s float64
	for _, i := range h.in[v] {
		s += h.edges[i].Weight
	}
	return s
}

// WeightedOutDegree returns sum over edges e with v in T(e) of
// w(e)/|T(e)| (§5.2: v's ability to predict others).
func (h *H) WeightedOutDegree(v int) float64 {
	var s float64
	for _, i := range h.out[v] {
		e := &h.edges[i]
		s += e.Weight / float64(len(e.Tail))
	}
	return s
}

// FilterByWeight returns a new hypergraph over the same vertices
// containing only edges with Weight >= min.
func (h *H) FilterByWeight(min float64) *H {
	out := NewOver(h.schema)
	for _, e := range h.edges {
		if e.Weight >= min {
			// Safe: e came from this graph, so AddEdge cannot fail.
			_ = out.AddEdge(e.Tail, e.Head, e.Weight)
		}
	}
	return out
}

// TopFractionThreshold returns the weight w such that keeping edges
// with Weight >= w retains (approximately) the top frac of all edges
// by weight. This realizes the "top 40%/30%/20% hyperedges w.r.t.
// ACVs" thresholds of §5.4. frac must be in (0, 1].
func (h *H) TopFractionThreshold(frac float64) (float64, error) {
	if !(frac > 0 && frac <= 1) {
		return 0, fmt.Errorf("hypergraph: fraction %v outside (0,1]", frac)
	}
	if len(h.edges) == 0 {
		return 0, errors.New("hypergraph: no edges")
	}
	ws := make([]float64, len(h.edges))
	for i, e := range h.edges {
		ws[i] = e.Weight
	}
	sort.Float64s(ws)
	keep := int(float64(len(ws)) * frac)
	if keep < 1 {
		keep = 1
	}
	return ws[len(ws)-keep], nil
}

// Stats summarizes the edge population split by the paper's two edge
// classes.
type Stats struct {
	DirectedEdges   int     // |T| == 1
	TwoToOne        int     // |T| == 2
	Other           int     // anything larger
	MeanACVEdges    float64 // mean weight over directed edges
	MeanACVTwoToOne float64 // mean weight over 2-to-1 hyperedges
}

// EdgeStats computes Stats for the hypergraph (the §5.1.2 headline
// counts).
func (h *H) EdgeStats() Stats {
	var st Stats
	var sumE, sumH float64
	for _, e := range h.edges {
		switch {
		case len(e.Tail) == 1:
			st.DirectedEdges++
			sumE += e.Weight
		case len(e.Tail) == 2:
			st.TwoToOne++
			sumH += e.Weight
		default:
			st.Other++
		}
	}
	if st.DirectedEdges > 0 {
		st.MeanACVEdges = sumE / float64(st.DirectedEdges)
	}
	if st.TwoToOne > 0 {
		st.MeanACVTwoToOne = sumH / float64(st.TwoToOne)
	}
	return st
}

// Validate re-checks all structural invariants (sorted sets,
// disjointness, index consistency).
func (h *H) Validate() error {
	if h.schema == nil {
		return errors.New("hypergraph: no vertices")
	}
	if len(h.pkeys.keys) != len(h.edges) {
		return fmt.Errorf("hypergraph: packed key index lists %d edges, want %d", len(h.pkeys.keys), len(h.edges))
	}
	packed := 0
	for i, e := range h.edges {
		if !sort.IntsAreSorted(e.Tail) || !sort.IntsAreSorted(e.Head) {
			return fmt.Errorf("hypergraph: edge %d not canonical", i)
		}
		if err := validSets(len(h.out), e.Tail, e.Head); err != nil {
			return fmt.Errorf("hypergraph: edge %d: %w", i, err)
		}
		if pk, packable := PackEdgeKey(e.Tail, e.Head); packable {
			packed++
			if id, ok := h.pkeys.get(pk); !ok || int(id) != i {
				return fmt.Errorf("hypergraph: edge %d missing from packed key index", i)
			}
			if _, stray := h.keys[EdgeKey(e.Tail, e.Head)]; stray {
				return fmt.Errorf("hypergraph: packable edge %d also in string key index", i)
			}
		} else if id, ok := h.keys[EdgeKey(e.Tail, e.Head)]; !ok || int(id) != i || h.pkeys.keys[i] != 0 {
			return fmt.Errorf("hypergraph: edge %d missing from key index", i)
		}
	}
	if h.pkeys.n != packed || len(h.keys) != len(h.edges)-packed {
		return fmt.Errorf("hypergraph: key indexes hold %d packed and %d string keys for %d and %d edges",
			h.pkeys.n, len(h.keys), packed, len(h.edges)-packed)
	}
	for v := range h.out {
		for _, i := range h.out[v] {
			if !containsInt(h.edges[i].Tail, v) {
				return fmt.Errorf("hypergraph: out index of %d lists edge %d", v, i)
			}
		}
	}
	for v := range h.in {
		for _, i := range h.in[v] {
			if !containsInt(h.edges[i].Head, v) {
				return fmt.Errorf("hypergraph: in index of %d lists edge %d", v, i)
			}
		}
	}
	return nil
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
