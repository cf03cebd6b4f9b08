// Persistent joint-count tables: the integer numerators behind every
// ACV the builder computes, maintainable in O(appended) time per
// append. Layout is flat int32 arrays indexed by closed-form offsets —
// unordered attribute pairs (a<b) carry k² cells (core.PairCells),
// unordered triples (a<b<c) k³ cells (core.TripleCells) — and each
// triple's table serves all three of its 2-to-1 candidates at once
// (core.TripleACVs), as the builder's stage 2 asks for them.
package delta

import (
	"context"
	"slices"

	"hypermine/internal/core"
	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// countBytes is the resident size of the count tables for n attributes
// at cardinality k: value counts, pair cells, and (for MaxTailSize >=
// 2) triple cells, 4 bytes each.
func countBytes(n, k int, maxTailSize int) int64 {
	nn := int64(n)
	kk := int64(k)
	b := 4 * (nn*kk + nn*(nn-1)/2*kk*kk)
	if maxTailSize >= 2 {
		b += 4 * (nn * (nn - 1) * (nn - 2) / 6 * kk * kk * kk)
	}
	return b
}

// jointCounts is also the core.Scorer every worker of an append's
// stage driver counts with; the tables are read-only while it runs.
type jointCounts struct {
	n, k int
	rows int

	val    []int32           // val[a*k + (v-1)]
	pair   *core.PairCells   // the builder's pair cells, k*k per pair a<b
	triple *core.TripleCells // k*k*k per triple a<b<c; nil when MaxTailSize < 2
}

// seedCounts builds the tables for tb's current rows from its
// TID-bitset index with the builder's own kernels on GOMAXPROCS
// workers: the pair cells with core.CountPairCells, and each triple's
// cells with core.PairCells.CountTriples, which popcounts (k-1)^3 of
// them and derives the rest from the pair cells. Seeding so costs
// about one stage-2 mining pass and never rescans rows column-wise.
func seedCounts(ctx context.Context, tb *table.Table, maxTailSize int) (*jointCounts, error) {
	n, k := tb.NumAttrs(), tb.K()
	ix := tb.Index()
	pc, err := core.CountPairCells(ctx, ix, core.Config{})
	if err != nil {
		return nil, err
	}
	jc := &jointCounts{n: n, k: k, rows: tb.NumRows(), val: make([]int32, n*k), pair: pc}
	for a := 0; a < n; a++ {
		for v := 1; v <= k; v++ {
			jc.val[a*k+v-1] = int32(ix.Count(a, table.Value(v)))
		}
	}
	if maxTailSize >= 2 {
		if jc.triple, err = pc.CountTriples(ctx, ix); err != nil {
			return nil, err
		}
	}
	return jc, nil
}

// add folds appended rows into the counts, polling ctx once per row.
// On cancellation the already-applied prefix is rolled back, so the
// tables always describe a whole number of appends.
func (jc *jointCounts) add(ctx context.Context, rows [][]table.Value) error {
	chk := runopt.NewChecker(ctx, 1, 1)
	for i, row := range rows {
		if err := chk.Tick(); err != nil {
			jc.sub(rows[:i])
			return err
		}
		jc.apply(row, 1)
	}
	jc.rows += len(rows)
	return nil
}

// sub removes rows previously folded in by add (rollback path).
func (jc *jointCounts) sub(rows [][]table.Value) {
	for _, row := range rows {
		jc.apply(row, -1)
	}
}

func (jc *jointCounts) apply(row []table.Value, sign int32) {
	n, k := jc.n, jc.k
	kk := k * k
	for a := 0; a < n; a++ {
		jc.val[a*k+int(row[a])-1] += sign
	}
	for a := 0; a < n-1; a++ {
		cell := jc.pair.Base(a, a+1) + (int(row[a])-1)*k
		for b := a + 1; b < n; b++ {
			jc.pair.Cells[cell+(b-a-1)*kk+int(row[b])-1] += sign
		}
	}
	if jc.triple == nil {
		return
	}
	kkk := kk * k
	for a := 0; a < n; a++ {
		va := int(row[a]) - 1
		for b := a + 1; b < n; b++ {
			cell := jc.triple.Base(a, b, b+1) + (va*k+int(row[b])-1)*k
			for c := b + 1; c < n; c++ {
				jc.triple.Cells[cell+(c-b-1)*kkk+int(row[c])-1] += sign
			}
		}
	}
}

// Null computes ACV(∅,{c}) from the value counts: the largest value
// count over the row count.
func (jc *jointCounts) Null(c int) float64 {
	return float64(slices.Max(jc.val[c*jc.k:(c+1)*jc.k])) / float64(jc.rows)
}

// Edge computes ACV({a},{c}) from the pair counts: the builder's own
// numerator over the row count, hence the same float64.
func (jc *jointCounts) Edge(a, c int) float64 {
	return float64(jc.pair.EdgeSum(a, c)) / float64(jc.rows)
}

// Triple computes the ACVs of the triple (a, b, c)'s three candidates
// from its stored table with the builder's own numerators, hence the
// same float64s.
func (jc *jointCounts) Triple(a, b, c int) [3]float64 {
	base := jc.triple.Base(a, b, c)
	return core.TripleACVs(jc.triple.Cells[base:], jc.k, jc.rows)
}
