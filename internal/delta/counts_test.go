package delta

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hypermine/internal/table"
)

// TestSeedCountsMatchRowScan: the tables seedCounts derives from the
// posting bitmaps with the builder's kernels (the pair cells, then
// 3-way tables whose cells are mostly derived from them) must equal a
// plain row-by-row recount, cell for cell, on both sides of a word
// boundary and with attributes that never take their last value
// (attribute 0) or their first (attribute 1), so some marginals are
// zero.
func TestSeedCountsMatchRowScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 6
	attrs := make([]string, n)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("A%d", j)
	}
	for _, k := range []int{2, 3, 5, 8} {
		for _, rows := range []int{64, 65, 100 + rng.Intn(300)} {
			tb, err := table.New(attrs, k)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]table.Value, n)
			for range rows {
				for j := range row {
					row[j] = table.Value(1 + rng.Intn(k))
				}
				row[0] = table.Value(1 + rng.Intn(k-1))
				row[1] = table.Value(2 + rng.Intn(k-1))
				if err := tb.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
			jc, err := seedCounts(context.Background(), tb, 2)
			if err != nil {
				t.Fatal(err)
			}
			// The recount uses only the layout of jc's tables.
			val := make([]int32, len(jc.val))
			pair := make([]int32, len(jc.pair.Cells))
			triple := make([]int32, len(jc.triple.Cells))
			for i := range rows {
				v := func(a int) int { return int(tb.At(i, a)) - 1 }
				for a := range n {
					val[a*k+v(a)]++
					for b := a + 1; b < n; b++ {
						pair[jc.pair.Base(a, b)+v(a)*k+v(b)]++
						for c := b + 1; c < n; c++ {
							triple[jc.triple.Base(a, b, c)+(v(a)*k+v(b))*k+v(c)]++
						}
					}
				}
			}
			for _, tab := range []struct {
				name      string
				got, want []int32
			}{{"value", jc.val, val}, {"pair", jc.pair.Cells, pair}, {"triple", jc.triple.Cells, triple}} {
				for i := range tab.want {
					if tab.got[i] != tab.want[i] {
						t.Fatalf("k=%d rows=%d: %s cell %d = %d, want %d", k, rows, tab.name, i, tab.got[i], tab.want[i])
					}
				}
			}
		}
	}
}
