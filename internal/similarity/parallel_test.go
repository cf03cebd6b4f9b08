package similarity

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hypermine/internal/hypergraph"
	"hypermine/internal/testutil"
)

// refReplaceTail is the pre-optimization allocating substitution, kept
// as the differential reference for the scratch-buffer fast path.
func refReplaceTail(tail []int, a1, a2 int) ([]int, bool) {
	out := make([]int, 0, len(tail))
	for _, v := range tail {
		if v == a1 {
			v = a2
		} else if v == a2 {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

// refOutSim / refInSim are the Definition 3.11 formulas written the
// straightforward allocating way, as shipped before the allocation-free
// read path.
func refOutSim(h *hypergraph.H, a1, a2 int) float64 {
	if a1 == a2 {
		if len(h.Out(a1)) > 0 {
			return 1
		}
		return 0
	}
	var num, den float64
	for _, i := range h.Out(a1) {
		e := h.Edge(int(i))
		sub, ok := refReplaceTail(e.Tail, a1, a2)
		if ok {
			if j, found := h.Lookup(sub, e.Head); found {
				f := h.Edge(int(j))
				num += math.Min(e.Weight, f.Weight)
				den += math.Max(e.Weight, f.Weight)
				continue
			}
		}
		den += e.Weight
	}
	for _, i := range h.Out(a2) {
		f := h.Edge(int(i))
		sub, ok := refReplaceTail(f.Tail, a2, a1)
		if ok {
			if _, found := h.Lookup(sub, f.Head); found {
				continue
			}
		}
		den += f.Weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func refInSim(h *hypergraph.H, a1, a2 int) float64 {
	if a1 == a2 {
		if len(h.In(a1)) > 0 {
			return 1
		}
		return 0
	}
	var num, den float64
	for _, i := range h.In(a1) {
		e := h.Edge(int(i))
		sub, ok := refReplaceTail(e.Head, a1, a2)
		if ok && !containsInt(e.Tail, a2) {
			if j, found := h.Lookup(e.Tail, sub); found {
				f := h.Edge(int(j))
				num += math.Min(e.Weight, f.Weight)
				den += math.Max(e.Weight, f.Weight)
				continue
			}
		}
		den += e.Weight
	}
	for _, i := range h.In(a2) {
		f := h.Edge(int(i))
		sub, ok := refReplaceTail(f.Head, a2, a1)
		if ok && !containsInt(f.Tail, a1) {
			if _, found := h.Lookup(f.Tail, sub); found {
				continue
			}
		}
		den += f.Weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func randomSimGraph(t *testing.T, rng *rand.Rand, nv, edges int) *hypergraph.H {
	t.Helper()
	names := make([]string, nv)
	for i := range names {
		names[i] = "v" + string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	h, err := hypergraph.New(names)
	if err != nil {
		t.Fatal(err)
	}
	for tries := 0; h.NumEdges() < edges && tries < edges*20; tries++ {
		w := rng.Float64() + 0.01
		switch rng.Intn(3) {
		case 0:
			_ = h.AddEdge([]int{rng.Intn(nv)}, []int{rng.Intn(nv)}, w)
		case 1:
			_ = h.AddEdge([]int{rng.Intn(nv), rng.Intn(nv)}, []int{rng.Intn(nv)}, w)
		case 2:
			_ = h.AddEdge([]int{rng.Intn(nv), rng.Intn(nv), rng.Intn(nv)}, []int{rng.Intn(nv)}, w)
		}
	}
	return h
}

// TestSimScratchDifferential checks the allocation-free OutSim/InSim
// against the straightforward allocating reference on random graphs
// with tails up to size 3.
func TestSimScratchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		nv := 6 + rng.Intn(20)
		h := randomSimGraph(t, rng, nv, 150)
		for a1 := 0; a1 < nv; a1++ {
			for a2 := 0; a2 < nv; a2++ {
				if got, want := OutSim(h, a1, a2), refOutSim(h, a1, a2); got != want {
					t.Fatalf("OutSim(%d,%d) = %v, reference %v", a1, a2, got, want)
				}
				if got, want := InSim(h, a1, a2), refInSim(h, a1, a2); got != want {
					t.Fatalf("InSim(%d,%d) = %v, reference %v", a1, a2, got, want)
				}
			}
		}
	}
}

// TestBuildGraphParallelDeterministic checks that the worker-pool
// distance matrix is bit-identical to the serial one at several
// parallelism levels.
func TestBuildGraphParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	h := randomSimGraph(t, rng, 30, 400)
	s := make([]int, 30)
	for i := range s {
		s[i] = i
	}
	build := func(par int) *Graph {
		g, err := BuildGraphContext(context.Background(), h, s, GraphOptions{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	serial := build(1)
	for _, par := range []int{0, 2, 4, 8, 64} {
		g := build(par)
		for i := range serial.D {
			for j := range serial.D[i] {
				if g.D[i][j] != serial.D[i][j] {
					t.Fatalf("parallelism %d: D[%d][%d] = %v, serial %v",
						par, i, j, g.D[i][j], serial.D[i][j])
				}
			}
		}
	}
}

// TestSimZeroAlloc pins the allocation-free read path on a
// restricted-model graph.
func TestSimZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	h := randomSimGraph(t, rng, 20, 150)
	if n := testing.AllocsPerRun(100, func() {
		for a1 := 0; a1 < 20; a1++ {
			_ = OutSim(h, a1, (a1+1)%20)
			_ = InSim(h, a1, (a1+7)%20)
		}
	}); n != 0 {
		t.Errorf("OutSim/InSim allocate %v objects/op, want 0", n)
	}
}
