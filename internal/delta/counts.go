// Persistent joint-count tables: the integer numerators behind every
// ACV the builder computes, maintainable in O(appended) time per
// append. Layout is flat int32 arrays indexed by precomputed offsets —
// unordered attribute pairs (a<b) carry k² cells, unordered triples
// (a<b<c) carry k³ cells, and one triple array serves all three head
// choices of a 2-to-1 candidate by striding the roles.
package delta

import (
	"context"
	"slices"

	"hypermine/internal/core"
	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// seedCheckEvery is the stride, in 3-way tables, between context
// polls while seeding the triple cells; one table is (k-1)^3 popcount
// passes over the posting words.
const seedCheckEvery = 16

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

	val  []int32         // val[a*k + (v-1)]
	pair *core.PairCells // the builder's pair cells, k*k per pair a<b
	// triple (a<b<c) at tripleBase(a,b,c), k*k*k cells:
	// ((va-1)*k+(vb-1))*k+(vc-1). nil when MaxTailSize < 2.
	triple []int32

	tripleOff [][]int // tripleOff[a][b-a-1]: ordinal of triple (a, b, b+1)
}

func (jc *jointCounts) tripleBase(a, b, c int) int {
	return (jc.tripleOff[a][b-a-1] + c - b - 1) * jc.k * jc.k * jc.k
}

// seedCounts builds the tables for tb's current rows from its
// TID-bitset index with the builder's own kernels: the pair cells with
// core.CountPairCells on GOMAXPROCS workers, and each triple's cells
// with core.PairCells.Triple, which popcounts (k-1)^3 of them and
// derives the rest from the pair cells. Seeding so costs about one
// stage-2 mining pass and never rescans rows column-wise.
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
	if maxTailSize < 2 {
		return jc, nil
	}
	jc.triple = make([]int32, n*(n-1)*(n-2)/6*k*k*k)
	jc.tripleOff = make([][]int, n)
	off := 0
	for a := 0; a < n; a++ {
		jc.tripleOff[a] = make([]int, n-a-1)
		for b := a + 1; b < n; b++ {
			jc.tripleOff[a][b-a-1] = off
			off += n - b - 1
		}
	}
	chk := runopt.NewChecker(ctx, 0, seedCheckEvery)
	kkk := k * k * k
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				if err := chk.Tick(); err != nil {
					return nil, err
				}
				base := jc.tripleBase(a, b, c)
				pc.Triple(ix, a, b, c, jc.triple[base:base+kkk])
			}
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
		offA := jc.tripleOff[a]
		for b := a + 1; b < n; b++ {
			cell := (va*k + int(row[b]) - 1) * k
			tbase := offA[b-a-1]
			for c := b + 1; c < n; c++ {
				jc.triple[(tbase+c-b-1)*kkk+cell+int(row[c])-1] += sign
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

// Pair computes ACV({a,b},{c}) from the triple counts. The triple
// array stores sorted (x<y<z) cells once; the roles of a, b, c map to
// strides k², k, 1 by sorted position, so one array serves every head
// choice.
func (jc *jointCounts) Pair(a, b, c int) float64 {
	k := jc.k
	x, y, z := sort3(a, b, c)
	base := jc.tripleBase(x, y, z)
	stride := func(attr int) int {
		switch attr {
		case x:
			return k * k
		case y:
			return k
		default:
			return 1
		}
	}
	sa, sb, sc := stride(a), stride(b), stride(c)
	var sum int64
	for va := 0; va < k; va++ {
		for vb := 0; vb < k; vb++ {
			off := base + va*sa + vb*sb
			best := int32(0)
			for vc := 0; vc < k; vc++ {
				if v := jc.triple[off+vc*sc]; v > best {
					best = v
				}
			}
			sum += int64(best)
		}
	}
	return float64(sum) / float64(jc.rows)
}

// sort3 orders three distinct ints ascending.
func sort3(a, b, c int) (int, int, int) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}
