package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hypermine/internal/table"
)

func TestBuildAssociationTableSingleTail(t *testing.T) {
	tb := geneDB(t)
	at, err := BuildAssociationTable(tb, []int{1}, 3) // G2 -> G4
	if err != nil {
		t.Fatal(err)
	}
	if at.NumRows() != 3 || at.M != 8 {
		t.Fatalf("rows=%d M=%d", at.NumRows(), at.M)
	}
	// G2 is always 1; G4 distribution there: value1 x1, value2 x1, value3 x6.
	row, err := at.RowIndex([]table.Value{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := at.Support(row); !almost(got, 1.0) {
		t.Errorf("Support = %v, want 1", got)
	}
	best, bc := at.Best(row)
	if best != 3 || bc != 6 {
		t.Errorf("Best = (%d,%d), want (3,6)", best, bc)
	}
	if got := at.Confidence(row); !almost(got, 0.75) {
		t.Errorf("Conf = %v, want 0.75", got)
	}
	if got := at.ConfidenceFor(row, 1); !almost(got, 0.125) {
		t.Errorf("ConfFor(1) = %v, want 0.125", got)
	}
	// Empty rows are harmless.
	row2, _ := at.RowIndex([]table.Value{3})
	if at.Support(row2) != 0 || at.Confidence(row2) != 0 {
		t.Error("empty row should have zero support/confidence")
	}
	if at.ConfidenceFor(row2, 9) != 0 {
		t.Error("out-of-range head value should give 0")
	}
}

func TestBuildAssociationTablePairTail(t *testing.T) {
	tb := interestDB(t)
	r, p, m := tb.AttrIndex("R"), tb.AttrIndex("P"), tb.AttrIndex("M")
	at, err := BuildAssociationTable(tb, []int{r, p}, m)
	if err != nil {
		t.Fatal(err)
	}
	if at.NumRows() != 9 {
		t.Fatalf("rows = %d, want 9", at.NumRows())
	}
	// Row (R=3, P=3): 4 observations, M = {1,1,2,1} -> best (1, 3), conf 0.75.
	row, err := at.RowIndex([]table.Value{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := at.Support(row); !almost(got, 0.5) {
		t.Errorf("Support = %v, want 0.5", got)
	}
	best, bc := at.Best(row)
	if best != 1 || bc != 3 {
		t.Errorf("Best = (%d,%d), want (1,3)", best, bc)
	}
	if got := at.Confidence(row); !almost(got, 0.75) {
		t.Errorf("Conf = %v, want 0.75", got)
	}
	// The AT's tail attribute order is sorted column order.
	if at.Tail[0] != r || at.Tail[1] != p {
		t.Errorf("tail = %v", at.Tail)
	}
}

func TestRowIndexErrors(t *testing.T) {
	tb := interestDB(t)
	at, err := BuildAssociationTable(tb, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := at.RowIndex([]table.Value{1}); err == nil {
		t.Error("want error for wrong arity")
	}
	if _, err := at.RowIndex([]table.Value{1, 9}); err == nil {
		t.Error("want error for out-of-range value")
	}
}

func TestBuildAssociationTableErrors(t *testing.T) {
	tb := interestDB(t)
	cases := []struct {
		name string
		tail []int
		head int
	}{
		{"empty tail", nil, 0},
		{"tail too big", []int{0, 1, 2, 3}, 3},
		{"tail=head", []int{0}, 0},
		{"dup tail", []int{1, 1}, 0},
		{"bad attr", []int{99}, 0},
		{"bad head", []int{0}, 99},
	}
	for _, c := range cases {
		if _, err := BuildAssociationTable(tb, c.tail, c.head); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// ACV identity: ACV == sum over rows of Supp(row)*Conf(row).
func TestACVMatchesRowSum(t *testing.T) {
	tb := interestDB(t)
	at, err := BuildAssociationTable(tb, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for row := 0; row < at.NumRows(); row++ {
		sum += at.Support(row) * at.Confidence(row)
	}
	if got := at.ACV(); !almost(got, sum) {
		t.Errorf("ACV = %v, row sum = %v", got, sum)
	}
}

func TestNullACV(t *testing.T) {
	tb := geneDB(t)
	// G4 values: 2,3,1,3,3,3,3,3 -> Maj = 6/8.
	if got := NullACV(tb, 3); !almost(got, 0.75) {
		t.Errorf("NullACV(G4) = %v, want 0.75", got)
	}
	empty, _ := table.New([]string{"A"}, 2)
	if NullACV(empty, 0) != 0 {
		t.Error("NullACV on empty table should be 0")
	}
}

// TestMajorityIndexMatchesScan checks that the majority read off the
// posting counts is the column scan's value and count, ties included
// (few rows make ties common), and that the builder's baselines are
// NullACV's to the bit.
func TestMajorityIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(bitsMaxK)
		tb := randomTable(rng, 4, k, 1+rng.Intn(12))
		ix := tb.Index()
		for c := 0; c < tb.NumAttrs(); c++ {
			v, n := Majority(tb, ix, c)
			wv, wn := Majority(tb, nil, c)
			if v != wv || n != wn {
				t.Fatalf("k=%d column %d: index majority (%d, %d), scan (%d, %d)", k, c, v, n, wv, wn)
			}
			if got, want := nullACV(tb, ix, c), NullACV(tb, c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d column %d: baseline %v from the index, %v by scan", k, c, got, want)
			}
		}
	}
}

func randomTable(rng *rand.Rand, nAttrs, k, rows int) *table.Table {
	attrs := make([]string, nAttrs)
	for j := range attrs {
		attrs[j] = "A" + string(rune('a'+j))
	}
	tb, _ := table.New(attrs, k)
	row := make([]table.Value, nAttrs)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = table.Value(1 + rng.Intn(k))
		}
		_ = tb.AppendRow(row)
	}
	return tb
}

// Theorem 3.8(1): ACV({A},{X}) >= ACV(empty,{X}).
// Theorem 3.8(2): ACV({A,B},{X}) >= max(ACV({A},{X}), ACV({B},{X})).
// Plus: all ACVs lie in [0, 1].
func TestTheorem38Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		tb := randomTable(rng, 4, k, 1+rng.Intn(60))
		for x := 0; x < 4; x++ {
			nullACV := NullACV(tb, x)
			for a := 0; a < 4; a++ {
				if a == x {
					continue
				}
				acvA, err := ACV(tb, []int{a}, x)
				if err != nil || acvA < nullACV-1e-12 || acvA < 0 || acvA > 1+1e-12 {
					return false
				}
				for b := a + 1; b < 4; b++ {
					if b == x {
						continue
					}
					acvB, _ := ACV(tb, []int{b}, x)
					acvAB, err := ACV(tb, []int{a, b}, x)
					if err != nil {
						return false
					}
					maxEdge := acvA
					if acvB > maxEdge {
						maxEdge = acvB
					}
					if acvAB < maxEdge-1e-12 || acvAB > 1+1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the fast builder kernels agree with the AT-based ACV.
func TestFastKernelsMatchAT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		tb := randomTable(rng, 3, k, 2+rng.Intn(80))
		cnt := make([]int32, k*k*k)
		want, _ := ACV(tb, []int{0}, 2)
		got := acvEdge(tb.Column(0), tb.Column(2), k, cnt)
		if !almost(got, want) {
			return false
		}
		tailRow := make([]int32, tb.NumRows())
		colA, colB := tb.Column(0), tb.Column(1)
		for i := range tailRow {
			tailRow[i] = int32(colA[i]-1)*int32(k) + int32(colB[i]-1)
		}
		want2, _ := ACV(tb, []int{0, 1}, 2)
		got2 := acvTail(tailRow, tb.Column(2), k, cnt)
		return almost(got2, want2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
