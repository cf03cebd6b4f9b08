package hypergraph

import (
	"fmt"
	"runtime"
	"testing"

	"hypermine/internal/testutil"
)

// allRestricted lists every directed and 2-to-1 edge over nv vertices
// (tails ascending, head outside the tail), in a fixed order.
func allRestricted(nv int) [][2][]int {
	var out [][2][]int
	for h := 0; h < nv; h++ {
		for a := 0; a < nv; a++ {
			if a != h {
				out = append(out, [2][]int{{a}, {h}})
			}
			for b := a + 1; b < nv; b++ {
				if a != h && b != h {
					out = append(out, [2][]int{{a, b}, {h}})
				}
			}
		}
	}
	return out
}

func namesN(nv int) []string {
	names := make([]string, nv)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	return names
}

// TestKeyIndexGrowth: a graph built without Reserve grows its packed
// key index from empty past 100k edges. After every growth the index
// still rejects re-adding any earlier edge, and at the end every edge
// is found at its id, absent pairs are misses, Validate passes, and a
// probe allocates nothing.
func TestKeyIndexGrowth(t *testing.T) {
	const nv = 60
	edges := allRestricted(nv)
	if len(edges) < 100000 {
		t.Fatalf("fixture has %d edges, want >= 100000", len(edges))
	}
	h, err := New(namesN(nv))
	if err != nil {
		t.Fatal(err)
	}
	slots := len(h.pkeys.slots)
	for i, e := range edges {
		if err := h.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		if len(h.pkeys.slots) == slots {
			continue
		}
		slots = len(h.pkeys.slots)
		for _, j := range []int{0, i / 2, i} {
			if err := h.AddEdge(edges[j][0], edges[j][1], 0.1); err == nil {
				t.Fatalf("edge %d re-added after growth to %d slots", j, slots)
			}
		}
	}
	if h.NumEdges() != len(edges) || h.pkeys.n != len(edges) || 2*h.pkeys.n > len(h.pkeys.slots) {
		t.Fatalf("%d edges, index holds %d in %d slots", h.NumEdges(), h.pkeys.n, len(h.pkeys.slots))
	}
	for i, e := range edges {
		if got, ok := h.Lookup(e[0], e[1]); !ok || got != i {
			t.Fatalf("Lookup(edge %d) = %d, %v", i, got, ok)
		}
	}
	// Three-vertex tails were never added: every one is a miss.
	for a := 0; a+3 < nv; a += 7 {
		if _, ok := h.Lookup([]int{a, a + 1, a + 2}, []int{a + 3}); ok {
			t.Fatalf("phantom 3-to-1 edge at %d", a)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if testutil.RaceEnabled {
		return
	}
	hit, miss := edges[len(edges)/3], [2][]int{{1, 2, 3}, {4}}
	if n := testing.AllocsPerRun(100, func() {
		h.Lookup(hit[0], hit[1])
		h.Lookup(miss[0], miss[1])
	}); n != 0 {
		t.Errorf("Lookup on a grown index allocates %v objects/op, want 0", n)
	}
}

// TestKeyIndexStringFallback: edges whose ids pass MaxPackedID live in
// the string map only; the packed index keeps their place (key 0) so
// ids stay aligned, and Validate checks both indexes.
func TestKeyIndexStringFallback(t *testing.T) {
	h, err := New(namesN(MaxPackedID + 4))
	if err != nil {
		t.Fatal(err)
	}
	big := MaxPackedID + 2
	for _, e := range [][2][]int{{{0}, {1}}, {{big}, {1}}, {{0, 2}, {1}}, {{0, big}, {1}}, {{1}, {0, 2}}} {
		if err := h.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if h.pkeys.n != 2 || len(h.keys) != 3 || len(h.pkeys.keys) != 5 {
		t.Fatalf("packed %d, string %d, key slots %d; want 2, 3, 5", h.pkeys.n, len(h.keys), len(h.pkeys.keys))
	}
	for _, i := range []int{1, 3, 4} {
		if h.pkeys.keys[i] != 0 {
			t.Fatalf("string-keyed edge %d has packed key %x", i, h.pkeys.keys[i])
		}
		e := h.Edge(i)
		if got, ok := h.Lookup(e.Tail, e.Head); !ok || got != i {
			t.Fatalf("Lookup(edge %d) = %d, %v", i, got, ok)
		}
	}
	if err := h.AddEdge([]int{big, 0}, []int{1}, 0.1); err == nil {
		t.Fatal("duplicate string-keyed edge accepted")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesKeyIndexDamage: Validate notices a packed index
// that lost an edge, lists a wrong key, or lost its place.
func TestValidateCatchesKeyIndexDamage(t *testing.T) {
	build := func() *H {
		h, err := New(namesN(6))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range allRestricted(6)[:20] {
			if err := h.AddEdge(e[0], e[1], 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	for name, damage := range map[string]func(h *H){
		"slot cleared": func(h *H) {
			for i, s := range h.pkeys.slots {
				if s != 0 {
					h.pkeys.slots[i] = 0
					return
				}
			}
		},
		"key changed": func(h *H) { h.pkeys.keys[3]++ },
		"place lost":  func(h *H) { h.pkeys.keys = h.pkeys.keys[:len(h.pkeys.keys)-1] },
		"count wrong": func(h *H) { h.pkeys.n-- },
	} {
		h := build()
		damage(h)
		if err := h.Validate(); err == nil {
			t.Errorf("%s: Validate passed", name)
		}
	}
}

// TestKeyIndexBytesBar: on a 13050-edge graph (every directed and
// 2-to-1 edge over 30 vertices, the shape of the 30x20000 serving
// model), the packed index sized by Reserve takes no more bytes than
// the map[uint64]int32 it replaced, sized by the same hint.
func TestKeyIndexBytesBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap accounting differs under the race detector")
	}
	edges := allRestricted(30)
	if len(edges) != 13050 {
		t.Fatalf("fixture has %d edges, want 13050", len(edges))
	}
	h, err := New(namesN(30))
	if err != nil {
		t.Fatal(err)
	}
	h.Reserve(len(edges), nil, nil)
	for _, e := range edges {
		if err := h.AddEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	index := 8*cap(h.pkeys.keys) + 4*len(h.pkeys.slots)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := make(map[uint64]int32, len(edges))
	for i, e := range edges {
		k, _ := PackEdgeKey(e[0], e[1])
		m[k] = int32(i)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	mapBytes := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d edges: flat index %d bytes, map %d bytes", len(edges), index, mapBytes)
	if index > mapBytes {
		t.Errorf("flat index takes %d bytes, more than the map's %d", index, mapBytes)
	}
}
