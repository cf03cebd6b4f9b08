// Functional append: the live-dataset pipeline in internal/delta
// republishes a model after every append while the previous generation
// keeps serving queries, so appended tables must never mutate storage a
// served model can still observe. AppendRows, the one append, therefore
// returns a NEW *Table (the receiver untouched) whose columns write the
// appended rows past the receiver's, in shared backing arrays where no
// other table has claimed them (see appendShell), and extends the
// receiver's TID-bitset index copy-on-extend: the new index copies the
// old posting words and scans only the appended rows.
package table

import (
	"fmt"
	"sync/atomic"
)

// AppendRows returns a new table equal to t with the given observations
// appended. Every row must have one value per attribute, each in 1..K;
// validation happens before any allocation, so on error no partial
// state exists anywhere. The receiver is not modified — models already
// mined from it (and queries in flight against them) stay valid.
//
// If t has a fresh cached index, the new table's index is derived from
// it by extendIndex (copy old posting words, scan only the appended
// rows) rather than rebuilt from scratch.
func (t *Table) AppendRows(rows [][]Value) (*Table, error) {
	for i, row := range rows {
		if len(row) != len(t.cols) {
			return nil, fmt.Errorf("table: append row %d has %d values, want %d", i, len(row), len(t.cols))
		}
		for j, v := range row {
			if v < 1 || int(v) > t.k {
				return nil, fmt.Errorf("table: append row %d column %q: value %d outside 1..%d", i, t.schema.Name(j), v, t.k)
			}
		}
	}
	nt := t.appendShell(len(rows))
	for j, col := range nt.cols {
		for i, row := range rows {
			col[t.rows+i] = row[j]
		}
	}
	if old := t.IndexIfBuilt(); old != nil {
		nt.idx = extendIndex(old, nt)
	}
	return nt, nil
}

// appendShell returns the table for add more rows: t's rows in place
// and the new ones, rows [t.rows, t.rows+add) of every column, for the
// caller to write. Tables made by appends share column backing arrays:
// when t's arrays have room and no other table has claimed the rows
// past t's (one compare-and-swap on their shared frontier), the new
// table takes those rows and copies nothing, so a chain of appends
// copies each row a constant number of times amortized. Otherwise the
// columns are copied into fresh arrays with a sixteenth of headroom.
// Either way no table writes a row another table reads: every table
// reads only rows below its own count.
func (t *Table) appendShell(add int) *Table {
	n := t.rows + add
	nt := t.emptyCopy()
	nt.rows = n
	if f := t.frontier; f != nil && cap(t.cols[0]) >= n && f.CompareAndSwap(int64(t.rows), int64(n)) {
		for j, c := range t.cols {
			nt.cols[j] = c[:n]
		}
		nt.frontier = f
		return nt
	}
	for j, c := range t.cols {
		col := make([]Value, n, n+n/16)
		copy(col, c)
		nt.cols[j] = col
	}
	nt.frontier = new(atomic.Int64)
	nt.frontier.Store(int64(n))
	return nt
}
