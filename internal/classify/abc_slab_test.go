package classify

import (
	"slices"
	"testing"
	"unsafe"

	"hypermine/internal/core"
	"hypermine/internal/testutil"
)

// TestNewABCTablesMatchBuildAssociationTable checks every association
// table NewABC carves from its slabs against core.BuildAssociationTable
// on random models: 1-, 2- and 3-attribute tails, k <= 8 and k > 8.
// Each carved slice must be capped at its length, and the count slices
// of consecutive tables must be adjacent in one slab, so a table that
// outgrew its slice (and was reallocated) is caught.
func TestNewABCTablesMatchBuildAssociationTable(t *testing.T) {
	dom, targets := []int{0, 1, 2, 3}, []int{4, 5, 6}
	tails := map[int]int{}
	for _, tc := range []struct {
		name string
		seed int64
		k    int
		cfg  core.Config
	}{
		{"k3", 41, 3, core.Config{GammaEdge: 1.0, GammaPair: 1.0, MaxTailSize: 3, GammaTriple: 1.0}},
		{"k5-C2", 42, 5, core.C2()},
		{"k9", 43, 9, core.Config{GammaEdge: 1.0, GammaPair: 1.0, MaxTailSize: 3, GammaTriple: 1.0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := randomModel(t, tc.seed, tc.k, tc.cfg, 8, 400)
			abc, err := NewABC(m, dom, targets)
			if err != nil {
				t.Fatal(err)
			}
			var prev *core.AssociationTable
			cells := 0
			for _, y := range targets {
				var want []int
				for _, ei := range m.H.In(y) {
					tail := m.H.Edge(int(ei)).Tail
					if !slices.ContainsFunc(tail, func(a int) bool { return !slices.Contains(dom, a) }) {
						want = append(want, int(ei))
					}
				}
				got := abc.edges[y]
				if len(got) != len(want) || cap(got) != len(got) {
					t.Fatalf("target %d: %d edges (cap %d), want %d", y, len(got), cap(got), len(want))
				}
				for i, ei := range want {
					e, at := m.H.Edge(ei), got[i].at
					ref, err := core.BuildAssociationTable(m.Table, e.Tail, y)
					if err != nil {
						t.Fatal(err)
					}
					tails[len(e.Tail)]++
					if !slices.Equal(at.Tail, ref.Tail) || at.Head != ref.Head || at.K != ref.K || at.M != ref.M ||
						!slices.Equal(at.Counts, ref.Counts) || !slices.Equal(at.HeadCounts, ref.HeadCounts) {
						t.Fatalf("target %d edge %v: carved AT differs from BuildAssociationTable", y, e.Tail)
					}
					pos := got[i].tailPos
					for _, s := range [][]int32{at.Counts, at.HeadCounts, pos} {
						if cap(s) != len(s) {
							t.Fatalf("target %d edge %v: carved slice len %d cap %d", y, e.Tail, len(s), cap(s))
						}
					}
					if cap(at.Tail) != len(at.Tail) || len(pos) != len(at.Tail) {
						t.Fatalf("target %d edge %v: tail len %d cap %d, %d positions", y, e.Tail, len(at.Tail), cap(at.Tail), len(pos))
					}
					for j, a := range at.Tail {
						if dom[pos[j]] != a {
							t.Fatalf("target %d edge %v: tail position %d -> %d", y, e.Tail, j, pos[j])
						}
					}
					if !adjacent(at.Counts, at.HeadCounts) || (prev != nil && !adjacent(prev.HeadCounts, at.Counts)) {
						t.Fatalf("target %d edge %v: counts are not carved from one slab", y, e.Tail)
					}
					prev = at
					cells += len(at.Counts) + len(at.HeadCounts)
				}
			}
			if got := abc.TableBytes(); got != 4*int64(cells) {
				t.Errorf("TableBytes %d, want %d", got, 4*cells)
			}
		})
	}
	for size := 1; size <= core.MaxTail; size++ {
		if tails[size] == 0 {
			t.Errorf("no %d-attribute tail was checked", size)
		}
	}
}

// adjacent reports whether b starts where a ends in memory.
func adjacent(a, b []int32) bool {
	end := uintptr(unsafe.Pointer(unsafe.SliceData(a))) + uintptr(len(a))*unsafe.Sizeof(a[0])
	return end == uintptr(unsafe.Pointer(unsafe.SliceData(b)))
}

// TestNewABCAllocsIndependentOfTables pins the slab layout: NewABC
// allocates the same number of times however many association tables
// it builds, here for the same dominator and targets over a model
// that admits few edges and one that admits every 1-, 2- and 3-tail.
func TestNewABCAllocsIndependentOfTables(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts unreliable under the race detector")
	}
	dom, targets := []int{0, 1, 2, 3, 4}, []int{5, 6, 7, 8, 9}
	measure := func(cfg core.Config) (tables int, allocs float64) {
		m := randomModel(t, 44, 3, cfg, 10, 600)
		abc, err := NewABC(m, dom, targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, y := range targets {
			tables += abc.EdgeCount(y)
		}
		return tables, testing.AllocsPerRun(20, func() {
			if _, err := NewABC(m, dom, targets); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, fewAllocs := measure(core.Config{GammaEdge: 1.4, GammaPair: 1.3})
	many, manyAllocs := measure(core.Config{GammaEdge: 1.0, GammaPair: 1.0, MaxTailSize: 3, GammaTriple: 1.0})
	t.Logf("%d tables: %v allocs; %d tables: %v allocs", few, fewAllocs, many, manyAllocs)
	if many < few+100 {
		t.Fatalf("fixtures differ by only %d tables; the pin needs many", many-few)
	}
	if manyAllocs > fewAllocs+2 {
		t.Errorf("%d more tables cost %v more allocations, want at most 2", many-few, manyAllocs-fewAllocs)
	}
}
