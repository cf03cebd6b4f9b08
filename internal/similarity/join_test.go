package similarity

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/hypergraph"
	"hypermine/internal/testutil"
)

// randomJoinGraph draws edges with tails of 1-4 and heads of 1-2
// vertices over the given vertex ids: the restricted model's shapes
// and the general ones the join keys by string.
func randomJoinGraph(t *testing.T, rng *rand.Rand, nv int, ids []int, edges int) *hypergraph.H {
	t.Helper()
	names := make([]string, nv)
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	h, err := hypergraph.New(names)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = ids[rng.Intn(len(ids))]
		}
		return out
	}
	for tries := 0; h.NumEdges() < edges && tries < edges*20; tries++ {
		tail := 1 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			tail = 4
		}
		head := 1
		if rng.Intn(4) == 0 {
			head = 2
		}
		_ = h.AddEdge(pick(tail), pick(head), rng.Float64()+0.01) // invalid draws are skipped
	}
	return h
}

// TestJoinDifferential checks every cell of BuildGraphContext, bit for
// bit, against 1 - (refInSim + refOutSim)/2 of the allocating lookup
// walk, at one, two and four workers. The collections repeat vertices
// and skip some; one graph carries ids beyond MaxPackedID, so its
// remainders take the string keys.
func TestJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type trial struct {
		nv  int
		ids []int
	}
	var trials []trial
	for i := 0; i < 8; i++ {
		nv := 6 + rng.Intn(20)
		ids := make([]int, nv)
		for v := range ids {
			ids[v] = v
		}
		trials = append(trials, trial{nv, ids})
	}
	big := hypergraph.MaxPackedID + 4
	trials = append(trials, trial{big + 1, []int{0, 1, 2, 3, big - 6, big - 5, big - 3, big - 1, big}})
	for n, tr := range trials {
		h := randomJoinGraph(t, rng, tr.nv, tr.ids, 40*len(tr.ids))
		s := append([]int(nil), tr.ids...)
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		s = append(s[:len(s)-1], s[0], s[1])
		for _, par := range []int{1, 2, 4} {
			g, err := BuildGraphContext(context.Background(), h, s, GraphOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for i := range s {
				if g.D[i][i] != 0 {
					t.Fatalf("trial %d, parallelism %d: D[%d][%d] = %v", n, par, i, i, g.D[i][i])
				}
				for j := i + 1; j < len(s); j++ {
					want := 1 - (refInSim(h, s[i], s[j])+refOutSim(h, s[i], s[j]))/2
					for _, got := range []float64{g.D[i][j], g.D[j][i]} {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d, parallelism %d: d(%d,%d) = %v, reference %v",
								n, par, s[i], s[j], got, want)
						}
					}
				}
			}
		}
	}
}

// TestJoinEpochWrap runs every pair through a scratch whose epoch is
// about to wrap, over stale stamps carrying the marks the first pairs
// after the wrap use, and checks each distance against a fresh
// scratch's.
func TestJoinEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	h := randomSimGraph(t, rng, 12, 150)
	s := make([]int, h.NumVertices())
	for i := range s {
		s[i] = i
	}
	ix := newJoinIndex(h, s)
	old := newJoinScratch(ix.buckets)
	for i := range old.stamps {
		old.stamps[i] = stamp{mark: uint32(2 + i%2), weight: 1}
	}
	old.epoch = math.MaxUint32 - 5
	for _, a1 := range s {
		for _, a2 := range s {
			if a1 == a2 {
				continue
			}
			want := ix.distance(newJoinScratch(ix.buckets), a1, a2)
			if got := ix.distance(old, a1, a2); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d(%d,%d) = %v across the epoch wrap, %v fresh", a1, a2, got, want)
			}
		}
	}
}

// TestJoinAllocsIndependentOfS pins the graph's allocations to a
// constant: the matrix is one slab and the join index and scratch are
// a few slabs, whatever the size of the collection.
func TestJoinAllocsIndependentOfS(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts unreliable under the race detector")
	}
	h := benchfix.RandomHypergraph(3, 40, 2000, 2)
	allocs := func(n, par int) float64 {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := BuildGraphContext(context.Background(), h, s, GraphOptions{Parallelism: par}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, par := range []int{1, 2} {
		small, large := allocs(10, par), allocs(40, par)
		t.Logf("parallelism %d: %v allocs at |S| = 10, %v at |S| = 40", par, small, large)
		if math.Abs(large-small) > 2 {
			t.Errorf("parallelism %d: %v allocs at |S| = 10 but %v at |S| = 40", par, small, large)
		}
	}
}

// TestSimilarityJoinBar: the serial join against a Distance call per
// pair (two packed-key lookup walks) on the fleet-churn model shape.
func TestSimilarityJoinBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	m := benchfix.ModelWorkload(30, 20000)
	all := make([]int, m.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	d := make([]float64, len(all)*len(all))
	lookups := func() error {
		for i, a1 := range all {
			for j := i + 1; j < len(all); j++ {
				d[i*len(all)+j] = Distance(m.H, a1, all[j])
			}
		}
		return nil
	}
	join := func() error {
		_, err := BuildGraphContext(context.Background(), m.H, all, GraphOptions{Parallelism: 1})
		return err
	}
	lookupNs, joinNs := testutil.BestOfPair(t, lookups, join)
	ratio := lookupNs / joinNs
	t.Logf("lookup walk %.2f ms, join %.2f ms: %.1fx", lookupNs/1e6, joinNs/1e6, ratio)
	if ratio < 2 {
		t.Errorf("join %.2f ms is only %.1fx the lookup walk's %.2f ms, want >= 2x", joinNs/1e6, ratio, lookupNs/1e6)
	}
}
