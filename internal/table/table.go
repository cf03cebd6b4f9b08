// Package table implements the discrete database substrate D(A, O, V)
// from Chapter 3 of the paper: a table whose columns are multi-valued
// attributes, whose rows are observations, and whose entries come from
// a fixed finite value set V = {1, 2, ..., k}.
//
// Storage is column-major so that the association-hypergraph builder in
// internal/core can scan single attributes with good cache locality.
package table

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hypermine/internal/schema"
)

// Value is a discretized attribute value. Valid values are 1..K for the
// owning table; 0 is reserved as "invalid/unset".
type Value uint8

// MaxK is the largest supported value-set cardinality.
const MaxK = 255

// Table is a database D(A, O, V) in the sense of Definition 3.1: a set
// of named multi-valued attributes (columns), a set of observations
// (rows), and a fixed finite value set V = {1..K}.
type Table struct {
	schema *schema.Names
	cols   [][]Value
	k      int
	rows   int

	// frontier, when non-nil, is the number of rows written so far into
	// the backing arrays of cols, which tables made by AppendRows share
	// (see appendShell).
	frontier *atomic.Int64

	// idx is the lazily built TID-bitset index (see index.go). It is
	// cached with the row count it was built at so AppendRow-extended
	// tables rebuild transparently.
	idxMu sync.Mutex
	idx   *Index
}

// New returns an empty table with the given attribute names and value
// cardinality k (so V = {1..k}).
func New(attrs []string, k int) (*Table, error) {
	s, err := schema.New(attrs)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	return NewOver(s, k)
}

// NewOver returns an empty table over the attribute schema s with
// value cardinality k. The table shares s.
func NewOver(s *schema.Names, k int) (*Table, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("table: cardinality k=%d out of range [1,%d]", k, MaxK)
	}
	return &Table{schema: s, cols: make([][]Value, s.Len()), k: k}, nil
}

// FromRows builds a table from row-major data, inferring nothing: every
// entry must already lie in 1..k.
func FromRows(attrs []string, k int, rows [][]Value) (*Table, error) {
	t, err := New(attrs, k)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if err := t.AppendRow(r); err != nil {
			return nil, fmt.Errorf("table: row %d: %w", i, err)
		}
	}
	return t, nil
}

// FromColumns builds a table from column-major data. All columns must
// have equal length and entries in 1..k. The column slices are copied.
func FromColumns(attrs []string, k int, cols [][]Value) (*Table, error) {
	t, err := New(attrs, k)
	if err != nil {
		return nil, err
	}
	if len(cols) != len(attrs) {
		return nil, fmt.Errorf("table: %d attributes but %d columns", len(attrs), len(cols))
	}
	n := -1
	for j, c := range cols {
		if n == -1 {
			n = len(c)
		} else if len(c) != n {
			return nil, fmt.Errorf("table: column %d has %d rows, want %d", j, len(c), n)
		}
		for i, v := range c {
			if v < 1 || int(v) > k {
				return nil, fmt.Errorf("table: column %d row %d: value %d outside 1..%d", j, i, v, k)
			}
		}
		t.cols[j] = append([]Value(nil), c...)
	}
	t.rows = n
	return t, nil
}

// FromRawColumns builds a table from column-major raw bytes (one byte
// per cell, as stored in binary model snapshots); see FromRawColumnsOver.
func FromRawColumns(attrs []string, k int, cols [][]byte) (*Table, error) {
	s, err := schema.New(attrs)
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	return FromRawColumnsOver(s, k, cols)
}

// FromRawColumnsOver builds a table over the schema s from column-major
// raw bytes, validating and converting in a single pass. The columns
// are carved from one slab, one allocation for the whole table, each
// capped at its length so an AppendRow copies instead of writing into
// its neighbour. The byte slices are not retained.
func FromRawColumnsOver(s *schema.Names, k int, cols [][]byte) (*Table, error) {
	t, err := NewOver(s, k)
	if err != nil {
		return nil, err
	}
	if len(cols) != s.Len() {
		return nil, fmt.Errorf("table: %d attributes but %d columns", s.Len(), len(cols))
	}
	n := len(cols[0])
	for j, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("table: column %d has %d rows, want %d", j, len(c), n)
		}
	}
	slab := make([]Value, n*len(cols))
	for j, c := range cols {
		col := slab[j*n : (j+1)*n : (j+1)*n]
		for i, b := range c {
			if b < 1 || int(b) > k {
				return nil, fmt.Errorf("table: column %d row %d: value %d outside 1..%d", j, i, b, k)
			}
			col[i] = Value(b)
		}
		t.cols[j] = col
	}
	t.rows = n
	return t, nil
}

// AppendRow appends one observation. The row must have one value per
// attribute, each in 1..K.
func (t *Table) AppendRow(row []Value) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("table: row has %d values, want %d", len(row), len(t.cols))
	}
	for j, v := range row {
		if v < 1 || int(v) > t.k {
			return fmt.Errorf("table: column %q: value %d outside 1..%d", t.schema.Name(j), v, t.k)
		}
	}
	if t.frontier != nil {
		// The columns may share backing arrays with other tables: cap
		// them, so the appends below copy into arrays of this table's
		// own.
		for j, c := range t.cols {
			t.cols[j] = c[:len(c):len(c)]
		}
		t.frontier = nil
	}
	for j, v := range row {
		t.cols[j] = append(t.cols[j], v)
	}
	t.rows++
	return nil
}

// K returns the value-set cardinality, i.e. |V|.
func (t *Table) K() int { return t.k }

// NumRows returns the number of observations.
func (t *Table) NumRows() int { return t.rows }

// NumAttrs returns the number of attributes.
func (t *Table) NumAttrs() int { return len(t.cols) }

// Schema returns the table's attribute schema, which tables appended
// from it and the hypergraph mined from it share.
func (t *Table) Schema() *schema.Names { return t.schema }

// Attrs returns the attribute names in column order. The slice is a copy.
func (t *Table) Attrs() []string { return t.schema.Names() }

// AttrName returns the name of column j.
func (t *Table) AttrName(j int) string { return t.schema.Name(j) }

// AttrIndex returns the column index of the named attribute, or -1.
func (t *Table) AttrIndex(name string) int { return t.schema.Index(name) }

// At returns the value of attribute column j in observation row i.
func (t *Table) At(i, j int) Value { return t.cols[j][i] }

// Column returns the backing slice for column j, capped at its length.
// Callers must treat it as read-only; it is shared, not copied,
// because the builder's hot loops depend on zero-copy access.
func (t *Table) Column(j int) []Value { return t.cols[j][:t.rows:t.rows] }

// Row copies observation i into dst (allocating if dst is too small)
// and returns it.
func (t *Table) Row(i int, dst []Value) []Value {
	if cap(dst) < len(t.cols) {
		dst = make([]Value, len(t.cols))
	}
	dst = dst[:len(t.cols)]
	for j := range t.cols {
		dst[j] = t.cols[j][i]
	}
	return dst
}

// RowRange returns a new table containing observations [lo, hi). The
// underlying data is copied so the slice can be mutated independently.
func (t *Table) RowRange(lo, hi int) (*Table, error) {
	if lo < 0 || hi > t.rows || lo > hi {
		return nil, fmt.Errorf("table: row range [%d,%d) outside [0,%d)", lo, hi, t.rows)
	}
	out := t.emptyCopy()
	for j := range t.cols {
		out.cols[j] = append([]Value(nil), t.cols[j][lo:hi]...)
	}
	out.rows = hi - lo
	return out, nil
}

// SelectAttrs returns a new table containing only the named attributes,
// in the given order. Data is copied.
func (t *Table) SelectAttrs(names []string) (*Table, error) {
	out, err := New(names, t.k)
	if err != nil {
		return nil, err
	}
	for j, name := range names {
		src := t.AttrIndex(name)
		if src < 0 {
			return nil, fmt.Errorf("table: unknown attribute %q", name)
		}
		out.cols[j] = append([]Value(nil), t.cols[src]...)
	}
	out.rows = t.rows
	return out, nil
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := t.emptyCopy()
	for j := range t.cols {
		out.cols[j] = append([]Value(nil), t.cols[j]...)
	}
	out.rows = t.rows
	return out
}

// emptyCopy returns an empty table over t's schema and cardinality.
func (t *Table) emptyCopy() *Table {
	return &Table{schema: t.schema, cols: make([][]Value, len(t.cols)), k: t.k}
}

// Validate re-checks every structural invariant. It is cheap relative
// to mining and is called by the builder before a long run.
func (t *Table) Validate() error {
	if t.schema == nil {
		return errors.New("table: no attributes")
	}
	if t.k < 1 || t.k > MaxK {
		return fmt.Errorf("table: cardinality %d out of range", t.k)
	}
	if len(t.cols) != t.schema.Len() {
		return fmt.Errorf("table: %d columns for %d attributes", len(t.cols), t.schema.Len())
	}
	for j, c := range t.cols {
		if len(c) != t.rows {
			return fmt.Errorf("table: column %q has %d rows, want %d", t.schema.Name(j), len(c), t.rows)
		}
		for i, v := range c {
			if v < 1 || int(v) > t.k {
				return fmt.Errorf("table: column %q row %d: value %d outside 1..%d", t.schema.Name(j), i, v, t.k)
			}
		}
	}
	return nil
}

// ValueCounts returns, for column j, a histogram over 1..K (index 0 of
// the result corresponds to value 1).
func (t *Table) ValueCounts(j int) []int {
	counts := make([]int, t.k)
	for _, v := range t.cols[j] {
		counts[v-1]++
	}
	return counts
}
