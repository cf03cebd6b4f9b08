package table

import (
	"encoding/csv"
	"fmt"
	"io"
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
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 0
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table: csv: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("table: csv: empty input")
	}
	header := recs[0]
	data := recs[1:]
	maxV := 0
	rows := make([][]Value, len(data))
	for i, rec := range data {
		row := make([]Value, len(rec))
		for j, field := range rec {
			n, err := strconv.Atoi(field)
			if err != nil {
				return nil, fmt.Errorf("table: csv row %d col %d: %w", i+1, j, err)
			}
			if n < 1 || n > MaxK {
				return nil, fmt.Errorf("table: csv row %d col %d: value %d outside 1..%d", i+1, j, n, MaxK)
			}
			if n > maxV {
				maxV = n
			}
			row[j] = Value(n)
		}
		rows[i] = row
	}
	if k <= 0 {
		k = maxV
	}
	if k == 0 {
		k = 1
	}
	return FromRows(header, k, rows)
}

// ReadRowsCSV parses observations to append to a table over s with
// cardinality k: a CSV whose header lists s's names in column order,
// then one record per observation. A header that differs fails naming
// the first column where it does, so a column-order mistake is an
// error, not silently transposed data.
func ReadRowsCSV(r io.Reader, s *schema.Names, k int) ([][]Value, error) {
	in, err := ReadCSV(r, k)
	if err != nil {
		return nil, err
	}
	if err := s.Match(in.schema); err != nil {
		return nil, fmt.Errorf("table: csv header %w", err)
	}
	rows := make([][]Value, in.rows)
	for i := range rows {
		rows[i] = in.Row(i, nil)
	}
	return rows, nil
}
