package core

import (
	"fmt"
	"sort"

	"hypermine/internal/table"
)

// AssociationTable is the AT of Definition 3.6(2) for a directed
// hyperedge (Tail, {Head}): one row per combination of tail values,
// holding the row's support count, the full head-value histogram, and
// hence the most frequent head value and the rule confidence.
//
// Rows are indexed densely: for Tail = [a] the row of value v is v-1;
// for Tail = [a, b] the row of (va, vb) is (va-1)*K + (vb-1), with a <
// b in column order.
type AssociationTable struct {
	Tail []int // sorted column indexes
	Head int   // column index
	K    int   // value cardinality
	M    int   // number of observations

	// Counts[row] is the number of observations matching the row's
	// tail values. HeadCounts[row*K+(y-1)] further splits by head
	// value y.
	Counts     []int32
	HeadCounts []int32
}

// NumRows returns K^len(Tail).
func (at *AssociationTable) NumRows() int { return len(at.Counts) }

// ATRows is the row count k^t of an association table with t tail
// attributes over values 1..k.
func ATRows(k, t int) int {
	rows := 1
	for range t {
		rows *= k
	}
	return rows
}

// RowIndex returns the dense row index of the given tail values, which
// must be listed in at.Tail order.
func (at *AssociationTable) RowIndex(vals []table.Value) (int, error) {
	if len(vals) != len(at.Tail) {
		return 0, fmt.Errorf("core: %d values for %d tail attributes", len(vals), len(at.Tail))
	}
	idx := 0
	for _, v := range vals {
		if v < 1 || int(v) > at.K {
			return 0, fmt.Errorf("core: value %d outside 1..%d", v, at.K)
		}
		idx = idx*at.K + int(v-1)
	}
	return idx, nil
}

// Support returns Supp of the row: Counts[row]/M.
func (at *AssociationTable) Support(row int) float64 {
	if at.M == 0 {
		return 0
	}
	return float64(at.Counts[row]) / float64(at.M)
}

// Best returns the most frequent head value for the row and its count.
// Ties break toward the smaller value; rows with zero support return
// (1, 0).
func (at *AssociationTable) Best(row int) (table.Value, int32) {
	base := row * at.K
	bestV, bestC := table.Value(1), int32(0)
	for y := 0; y < at.K; y++ {
		if c := at.HeadCounts[base+y]; c > bestC {
			bestC = c
			bestV = table.Value(y + 1)
		}
	}
	return bestV, bestC
}

// Confidence returns Conf of the row's induced mva-type rule
// {tail values} ==mva==> {(Head, best)}: BestCount/Count.
func (at *AssociationTable) Confidence(row int) float64 {
	if at.Counts[row] == 0 {
		return 0
	}
	_, bc := at.Best(row)
	return float64(bc) / float64(at.Counts[row])
}

// ConfidenceFor returns Conf for an explicit head value y rather than
// the most frequent one.
func (at *AssociationTable) ConfidenceFor(row int, y table.Value) float64 {
	if at.Counts[row] == 0 || y < 1 || int(y) > at.K {
		return 0
	}
	return float64(at.HeadCounts[row*at.K+int(y-1)]) / float64(at.Counts[row])
}

// ACV computes the association confidence value of Definition 3.6(1):
// the sum over rows of Supp(row) * Conf(row), which equals
// sum_rows BestCount / M.
func (at *AssociationTable) ACV() float64 {
	if at.M == 0 {
		return 0
	}
	var sum int64
	for row := range at.Counts {
		_, bc := at.Best(row)
		sum += int64(bc)
	}
	return float64(sum) / float64(at.M)
}

// MaxTail is the largest supported tail set. The paper's restricted
// model (§3.2) uses |T| <= 2; 3 is this library's implementation of
// the thesis's future-work generalization.
const MaxTail = 3

// BuildAssociationTable produces the AT for (tail, {head}). Tail must
// have between one and MaxTail distinct attributes, all distinct from
// head.
func BuildAssociationTable(tb *table.Table, tail []int, head int) (*AssociationTable, error) {
	at := &AssociationTable{}
	if err := at.Fill(tb, tail, head); err != nil {
		return nil, err
	}
	return at, nil
}

// Fill makes at the association table of (tail, {head}). It counts
// from the table's resident TID index when one is fresh; a caller
// filling many tables shares one CountingIndex through FillFrom.
func (at *AssociationTable) Fill(tb *table.Table, tail []int, head int) error {
	return at.FillFrom(tb, tb.IndexIfBuilt(), tail, head)
}

// FillFrom makes at the association table of (tail, {head}), reusing
// the slices at already holds where they are large enough, so a caller
// that sizes them up front (rule mining's per-worker scratch tables,
// the classifier's slab-carved tables) allocates nothing here. ix,
// when non-nil, must be an index of tb (see CountingIndex), and for
// k <= bitsMaxK the posting-bitmap kernel counts the table. Otherwise
// one scan of the training rows does: for larger k, and for a one-off
// table with no index, where building postings would cost more than
// the scan.
func (at *AssociationTable) FillFrom(tb *table.Table, ix *table.Index, tail []int, head int) error {
	if len(tail) < 1 || len(tail) > MaxTail {
		return fmt.Errorf("core: tail size %d outside 1..%d", len(tail), MaxTail)
	}
	for _, a := range tail {
		if a < 0 || a >= tb.NumAttrs() {
			return fmt.Errorf("core: tail attribute %d out of range", a)
		}
		if a == head {
			return fmt.Errorf("core: attribute %d in both tail and head", a)
		}
	}
	if head < 0 || head >= tb.NumAttrs() {
		return fmt.Errorf("core: head attribute %d out of range", head)
	}
	k := tb.K()
	st := append(at.Tail[:0], tail...)
	sort.Ints(st)
	for i := 1; i < len(st); i++ {
		if st[i] == st[i-1] {
			return fmt.Errorf("core: duplicate tail attribute %d", st[i])
		}
	}
	rows := ATRows(k, len(st))
	at.Tail, at.Head, at.K, at.M = st, head, k, tb.NumRows()
	at.Counts = zeroed(at.Counts, rows)
	at.HeadCounts = zeroed(at.HeadCounts, rows*k)
	if ix == nil || k > bitsMaxK {
		at.fillScan(tb)
		return nil
	}
	var tails [MaxTail][]uint64
	for i, a := range st {
		tails[i] = ix.Postings(a)
	}
	at.countBits(tails, ix.Postings(head), ix.Words())
	return nil
}

// fillScan counts at's zeroed cells with one scan of the training
// rows.
func (at *AssociationTable) fillScan(tb *table.Table) {
	k, m, st := at.K, at.M, at.Tail
	hc := tb.Column(at.Head)
	switch len(st) {
	case 1:
		tc := tb.Column(st[0])
		for i := 0; i < m; i++ {
			row := int(tc[i] - 1)
			at.Counts[row]++
			at.HeadCounts[row*k+int(hc[i]-1)]++
		}
	case 2:
		ta, tbcol := tb.Column(st[0]), tb.Column(st[1])
		for i := 0; i < m; i++ {
			row := int(ta[i]-1)*k + int(tbcol[i]-1)
			at.Counts[row]++
			at.HeadCounts[row*k+int(hc[i]-1)]++
		}
	case 3:
		ta, tbcol, tc := tb.Column(st[0]), tb.Column(st[1]), tb.Column(st[2])
		for i := 0; i < m; i++ {
			row := (int(ta[i]-1)*k+int(tbcol[i]-1))*k + int(tc[i]-1)
			at.Counts[row]++
			at.HeadCounts[row*k+int(hc[i]-1)]++
		}
	}
}

// zeroed returns s resized to n zeroed entries, reallocating only when
// its capacity is short.
func zeroed(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NullACV returns ACV(empty-set, {head}) = Maj(head)/M, the baseline of
// Theorem 3.8(1): the frequency of the head attribute's most common
// value.
func NullACV(tb *table.Table, head int) float64 {
	return nullACV(tb, nil, head)
}

// nullACV is NullACV with the majority counted as Majority counts it.
func nullACV(tb *table.Table, ix *table.Index, head int) float64 {
	m := tb.NumRows()
	if m == 0 {
		return 0
	}
	_, best := Majority(tb, ix, head)
	return float64(best) / float64(m)
}

// Majority returns the most common value of column c and its count,
// the smallest such value on ties. It reads the counts off ix's
// posting counts when ix is non-nil (ix must index tb's rows) and
// otherwise counts them by a scan of the column.
func Majority(tb *table.Table, ix *table.Index, c int) (table.Value, int) {
	var counts []int
	if ix == nil {
		counts = tb.ValueCounts(c)
	}
	best, bestN := table.Value(1), -1
	for v := table.Value(1); int(v) <= tb.K(); v++ {
		var n int
		if ix != nil {
			n = ix.Count(c, v)
		} else {
			n = counts[v-1]
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	return best, bestN
}

// ACV computes the association confidence value for (tail, {head})
// without retaining the full table.
func ACV(tb *table.Table, tail []int, head int) (float64, error) {
	at, err := BuildAssociationTable(tb, tail, head)
	if err != nil {
		return 0, err
	}
	return at.ACV(), nil
}
