package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

// TestCountBitsMatchesRowScan: every association table FillFrom counts
// equals the oracle's row scan cell for cell, for tails of one to
// three attributes, k in {1, 2, 3, 5, 8} (the posting-bitmap kernel,
// each of its one- to four-wide head passes) and k = 9 (the row scan), and row counts around a word boundary and past
// one chunk of the 3-tail path. Each
// table is counted from a freshly built index, from a transient
// CountingIndex of a table without one, and from an index that
// table.AppendRows extended; every index keeps the padding bits past
// its last row zero. One AssociationTable is refilled throughout, so
// the cells must not carry counts from a previous, larger table.
func TestCountBitsMatchesRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 3, 5, 8, 9} {
		sizes := []int{1, 63, 64, 65, 3001}
		if k == 3 {
			// 40000 rows span two of the 3-tail path's 512-word chunks.
			sizes = append(sizes, 40000)
		}
		for _, rows := range sizes {
			tb := randTable(t, rng, 5, k, rows)
			base, err := tb.RowRange(0, (rows+1)/2)
			if err != nil {
				t.Fatal(err)
			}
			base.Index()
			extended, err := base.AppendRows(tableRows(tb, (rows+1)/2, rows))
			if err != nil {
				t.Fatal(err)
			}
			fresh := tb.Clone()
			fresh.Index()
			transient := tb.Clone()
			for _, src := range []struct {
				name string
				tb   *table.Table
				ix   *table.Index
			}{
				{"fresh", fresh, CountingIndex(fresh)},
				{"transient", transient, CountingIndex(transient)},
				{"extended", extended, CountingIndex(extended)},
			} {
				name := fmt.Sprintf("k=%d rows=%d %s", k, rows, src.name)
				if (src.ix == nil) != (k > bitsMaxK) {
					t.Fatalf("%s: CountingIndex = %v, want an index exactly when k <= %d", name, src.ix, bitsMaxK)
				}
				if src.ix != nil {
					checkPadding(t, name, src.ix, src.tb.NumAttrs())
				}
				var at AssociationTable
				for _, tail := range allTails(src.tb.NumAttrs()) {
					for head := range src.tb.NumAttrs() {
						if contains(tail, head) {
							continue
						}
						if err := at.FillFrom(src.tb, src.ix, tail, head); err != nil {
							t.Fatal(err)
						}
						counts, headCounts := scanCounts(tb, tail, head)
						if !reflect.DeepEqual(at.Counts, counts) || !reflect.DeepEqual(at.HeadCounts, headCounts) {
							t.Fatalf("%s tail %v head %d: kernel differs from the row scan\ngot  %v %v\nwant %v %v",
								name, tail, head, at.Counts, at.HeadCounts, counts, headCounts)
						}
					}
				}
			}
			if transient.IndexIfBuilt() != nil {
				t.Fatalf("k=%d rows=%d: a transient CountingIndex was cached on the table", k, rows)
			}
		}
	}
}

// tableRows returns observations [lo, hi) of tb, row-major.
func tableRows(tb *table.Table, lo, hi int) [][]table.Value {
	out := make([][]table.Value, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, tb.Row(i, nil))
	}
	return out
}

// allTails lists every sorted attribute set of one to MaxTail of n
// attributes.
func allTails(n int) [][]int {
	var out [][]int
	var walk func(from int, cur []int)
	walk = func(from int, cur []int) {
		if len(cur) > 0 {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == MaxTail {
			return
		}
		for a := from; a < n; a++ {
			walk(a+1, append(cur, a))
		}
	}
	walk(0, nil)
	return out
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// checkPadding fails unless every posting of ix's attrs attributes is
// zero past its last row: the kernel reads a row's support as the sum of its head counts,
// which a stray padding bit would inflate.
func checkPadding(t *testing.T, name string, ix *table.Index, attrs int) {
	t.Helper()
	tail := ix.Rows() % 64
	if tail == 0 {
		return
	}
	mask := ^uint64(0) << tail
	for a := range attrs {
		for v := 1; v <= ix.K(); v++ {
			if w := ix.Posting(a, table.Value(v))[ix.Words()-1]; w&mask != 0 {
				t.Fatalf("%s: posting (%d, %d) has padding bits %#x set", name, a, v, w&mask)
			}
		}
	}
}

// coldRulesModel builds the cold-rules fixture: 20000 random rows over
// 30 attributes at k = 3, mined with GammaEdge = GammaPair = 1, so
// every head has 29 edges and 406 2-to-1 hyperedges into it.
func coldRulesModel(tb testing.TB) *Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(20))
	m, err := Build(randTable(tb, rng, 30, 3, 20000), Config{GammaEdge: 1, GammaPair: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// busiestHead returns the attribute with the most in-edges.
func busiestHead(m *Model) int {
	head := 0
	for v := range m.Table.NumAttrs() {
		if len(m.H.In(v)) > len(m.H.In(head)) {
			head = v
		}
	}
	return head
}

// TestColdRulesBar: on the cold-rules fixture, single-threaded
// MineRules on the busiest head must be at least 3x faster than the
// row-scan oracle; the two must also agree.
func TestColdRulesBar(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	m := coldRulesModel(t)
	head := busiestHead(m)
	opt := MineOptions{MaxRules: 5}
	got, err := MineRules(m, head, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := mineRulesOracle(m, head, opt); !reflect.DeepEqual(got, want) {
		t.Fatalf("MineRules differs from the oracle:\ngot  %+v\nwant %+v", got, want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	kernelNs, scanNs := testutil.BestOfPair(t,
		func() error { _, err := MineRules(m, head, opt); return err },
		func() error { mineRulesOracle(m, head, opt); return nil })
	ratio := scanNs / kernelNs
	t.Logf("%d in-edges: MineRules %.2f ms, row-scan oracle %.2f ms (%.1fx)",
		len(m.H.In(head)), kernelNs/1e6, scanNs/1e6, ratio)
	if ratio < 3 {
		t.Errorf("MineRules is %.1fx faster than the row scan, want >= 3x", ratio)
	}
}

// TestMineRulesAllocsResidentIndex: with the index the build left on
// the table, a MineRules call allocates no more than the 19 the
// row-scan miner it replaced allocated on this fixture (its candidate
// slice grew by append; the kernel sizes one slab). On a table without
// a resident index, the call's transient postings are dropped, not
// cached on the table.
func TestMineRulesAllocsResidentIndex(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	m, err := Build(randTable(t, rng, 8, 3, 400), Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if m.Table.IndexIfBuilt() == nil {
		t.Fatal("fixture has no resident index")
	}
	head := busiestHead(m)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := MineRules(m, head, MineOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d in-edges: %v allocations per MineRules", len(m.H.In(head)), allocs)
	if allocs > 19 {
		t.Errorf("MineRules allocates %v times, want <= 19", allocs)
	}
	bare := *m
	bare.Table = m.Table.Clone()
	if _, err := MineRules(&bare, head, MineOptions{}); err != nil {
		t.Fatal(err)
	}
	if bare.Table.IndexIfBuilt() != nil {
		t.Error("MineRules left its transient index cached on the table")
	}
}

// TestMineRulesWorkerCountIndependent: the fan-out over a head's
// in-edges returns the same rules at every GOMAXPROCS, including more
// workers than the machine has cores; under -race it also checks that
// the workers share nothing they write.
func TestMineRulesWorkerCountIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := Build(randTable(t, rng, 9, 3, 700), Config{GammaEdge: 1, GammaPair: 1, GammaTriple: 1, MaxTailSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for head := range m.Table.NumAttrs() {
		runtime.GOMAXPROCS(1)
		want, err := MineRules(m, head, MineOptions{MinSupport: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got, err := MineRules(m, head, MineOptions{MinSupport: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("head %d: %d workers mine different rules than one", head, procs)
			}
		}
	}
}
