package core

import (
	"context"
	"math/rand"
	"testing"

	"hypermine/internal/table"
)

func benchTable(b testing.TB, n, k, rows int) *table.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	attrs := make([]string, n)
	for j := range attrs {
		attrs[j] = "A" + string(rune('a'+j%26)) + string(rune('a'+j/26))
	}
	tb, err := table.New(attrs, k)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]table.Value, n)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = table.Value(1 + rng.Intn(k))
		}
		if err := tb.AppendRow(row); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// BenchmarkACVEdgeKernel measures the directed-edge counting kernel —
// the inner loop of stage 1 of the builder.
func BenchmarkACVEdgeKernel(b *testing.B) {
	tb := benchTable(b, 2, 3, 2000)
	cnt := make([]int32, 9)
	colA, colC := tb.Column(0), tb.Column(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = acvEdge(colA, colC, 3, cnt)
	}
	b.SetBytes(int64(tb.NumRows()))
}

// BenchmarkACVPairKernel measures the 2-to-1 counting kernel — the
// inner loop of stage 2 of the builder.
func BenchmarkACVPairKernel(b *testing.B) {
	tb := benchTable(b, 3, 3, 2000)
	cnt := make([]int32, 27)
	tailRow := make([]int32, tb.NumRows())
	colA, colB := tb.Column(0), tb.Column(1)
	for i := range tailRow {
		tailRow[i] = int32(colA[i]-1)*3 + int32(colB[i]-1)
	}
	colC := tb.Column(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = acvTail(tailRow, colC, 3, cnt)
	}
	b.SetBytes(int64(tb.NumRows()))
}

// BenchmarkACVEdgeKernelBits measures the bitmap directed-edge kernel
// on the same shape as BenchmarkACVEdgeKernel, for a direct
// scalar-vs-bitset comparison: counting the pair's cells and reading
// ACV({a},{c}) from them. The cells serve both directions of the pair.
func BenchmarkACVEdgeKernelBits(b *testing.B) {
	tb := benchTable(b, 2, 3, 2000)
	ix := tb.Index()
	pc := &PairCells{n: 2, k: 3, Cells: make([]int32, 9)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.count(ix, 0, 1)
		_ = pc.EdgeSum(0, 1)
	}
	b.SetBytes(int64(tb.NumRows()))
}

// BenchmarkACVPairKernelBits measures the bitmap stage-2 kernel on the
// same shape as BenchmarkACVPairKernel: one 3-way table and the ACVs of
// its three 2-to-1 candidates. Like the scalar bench's tail index, the
// pair cells it derives from are counted outside the loop.
func BenchmarkACVPairKernelBits(b *testing.B) {
	tb := benchTable(b, 3, 3, 2000)
	ix := tb.Index()
	pc, err := CountPairCells(context.Background(), ix, Config{})
	if err != nil {
		b.Fatal(err)
	}
	cells := make([]int32, 27)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.Triple(ix, 0, 1, 2, cells)
		_ = TripleACVs(cells, 3, tb.NumRows())
	}
	b.SetBytes(int64(tb.NumRows()))
}

// BenchmarkSupportCountScan / BenchmarkSupportCountBits compare the
// two SupportCount paths on a 3-item conjunction over 50k rows.
func supportCountBenchItems(b *testing.B) (*table.Table, []Item) {
	tb := benchTable(b, 8, 3, 50000)
	return tb, []Item{{Attr: 0, Val: 1}, {Attr: 3, Val: 2}, {Attr: 6, Val: 3}}
}

func BenchmarkSupportCountScan(b *testing.B) {
	tb, items := supportCountBenchItems(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = supportCountScan(tb, items)
	}
	b.SetBytes(int64(tb.NumRows()))
}

func BenchmarkSupportCountBits(b *testing.B) {
	tb, items := supportCountBenchItems(b)
	ix := tb.Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = supportCountBits(ix, items)
	}
	b.SetBytes(int64(tb.NumRows()))
}

// BenchmarkBuildAssociationTable measures full AT construction, the
// unit of work of classifier preparation.
func BenchmarkBuildAssociationTable(b *testing.B) {
	tb := benchTable(b, 3, 5, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildAssociationTable(tb, []int{0, 1}, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildModel measures end-to-end model construction at a
// moderate size (50 attributes, 1000 rows, k=3).
func BenchmarkBuildModel(b *testing.B) {
	tb := benchTable(b, 50, 3, 1000)
	cfg := C1()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tb, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineRulesCold mines the rules of the head with the most
// in-edges on a 20000-row, 30-attribute, k = 3 model (435 in-edges),
// the shape of a cold rules answer: "resident" counts from the index
// the build left on the table, "transient" from a table without one,
// so each call builds and drops its own postings.
func BenchmarkMineRulesCold(b *testing.B) {
	m := coldRulesModel(b)
	head := busiestHead(m)
	bare := *m
	bare.Table = m.Table.Clone()
	for _, c := range []struct {
		name string
		m    *Model
	}{{"resident", m}, {"transient", &bare}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MineRules(c.m, head, MineOptions{MaxRules: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
