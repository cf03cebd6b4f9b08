package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"hypermine/internal/schema"
)

// WriteCSV writes the table as CSV: a header row of attribute names
// followed by one row per observation of integer values in 1..K.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Attrs()); err != nil {
		return err
	}
	rec := make([]string, len(t.cols))
	for i := 0; i < t.rows; i++ {
		for j := range t.cols {
			rec[j] = strconv.Itoa(int(t.cols[j][i]))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table previously written by WriteCSV. If k <= 0 the
// cardinality is inferred as the maximum value observed.
func ReadCSV(r io.Reader, k int) (*Table, error) {
	header, vals, maxV, err := readValues(r, k)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		k = max(maxV, 1)
	}
	t, err := New(header, k)
	if err != nil {
		return nil, err
	}
	// Transpose into columns carved from one slab, each capped at its
	// length so an AppendRow copies instead of writing into its
	// neighbour.
	w := len(header)
	n := len(vals) / w
	slab := make([]Value, len(vals))
	for j := range t.cols {
		col := slab[j*n : (j+1)*n : (j+1)*n]
		for i := range col {
			col[i] = vals[i*w+j]
		}
		t.cols[j] = col
	}
	t.rows = n
	return t, nil
}

// ReadRowsCSV parses observations to append to a table over s with
// cardinality k: a CSV whose header lists s's names in column order,
// then one record per observation. A header that differs fails naming
// the first column where it does, so a column-order mistake is an
// error, not silently transposed data. The rows are carved from one
// slab.
func ReadRowsCSV(r io.Reader, s *schema.Names, k int) ([][]Value, error) {
	header, vals, _, err := readValues(r, k)
	if err != nil {
		return nil, err
	}
	if err := s.Match(header); err != nil {
		return nil, fmt.Errorf("table: csv header %w", err)
	}
	w := len(header)
	rows := make([][]Value, len(vals)/w)
	for i := range rows {
		rows[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return rows, nil
}

// readValues streams a CSV of a header record and then records as wide
// as it, each field an integer in 1..k (1..MaxK if k is not in
// 1..MaxK), into one row-major slab. It returns the header, the slab
// and the largest value read.
func readValues(r io.Reader, k int) (header []string, vals []Value, maxV int, err error) {
	if k < 1 || k > MaxK {
		k = MaxK
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err == io.EOF {
		return nil, nil, 0, fmt.Errorf("table: csv: empty input")
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("table: csv: %w", err)
	}
	header = slices.Clone(rec)
	for i := 1; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return header, vals, maxV, nil
		}
		if err != nil {
			return nil, nil, 0, fmt.Errorf("table: csv: %w", err)
		}
		for j, field := range rec {
			n, err := strconv.Atoi(field)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("table: csv row %d col %d: %w", i, j, err)
			}
			if n < 1 || n > k {
				return nil, nil, 0, fmt.Errorf("table: csv row %d col %d: value %d outside 1..%d", i, j, n, k)
			}
			maxV = max(maxV, n)
			vals = append(vals, Value(n))
		}
	}
}
