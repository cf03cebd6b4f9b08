package table_test

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hypermine/internal/schema"
	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

// rowsCSV returns a CSV of n rows over attrs and the rows it holds,
// with values in 1..k.
func rowsCSV(attrs []string, n, k int) ([]byte, [][]table.Value) {
	var b bytes.Buffer
	b.WriteString(strings.Join(attrs, ","))
	b.WriteByte('\n')
	rows := make([][]table.Value, n)
	for i := range rows {
		rows[i] = make([]table.Value, len(attrs))
		for j := range attrs {
			if j > 0 {
				b.WriteByte(',')
			}
			v := 1 + (i*7+j*3)%k
			rows[i][j] = table.Value(v)
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteByte('\n')
	}
	return b.Bytes(), rows
}

func attrNames(n int) []string {
	names := make([]string, n)
	for j := range names {
		names[j] = "A" + strconv.Itoa(j)
	}
	return names
}

// TestReadRowsCSV: the rows read are the rows written, and a record
// with a value above k, a ragged record or a renamed header column is
// an error.
func TestReadRowsCSV(t *testing.T) {
	attrs := attrNames(4)
	s, err := schema.New(attrs)
	if err != nil {
		t.Fatal(err)
	}
	in, want := rowsCSV(attrs, 9, 3)
	got, err := table.ReadRowsCSV(bytes.NewReader(in), s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadRowsCSV = %v, want %v", got, want)
	}
	if got, err := table.ReadRowsCSV(strings.NewReader("A0,A1,A2,A3\n"), s, 3); err != nil || len(got) != 0 {
		t.Fatalf("header only: %v, %v; want no rows", got, err)
	}
	for name, body := range map[string]string{
		"value above k": "A0,A1,A2,A3\n1,2,3,4\n",
		"zero value":    "A0,A1,A2,A3\n1,0,3,1\n",
		"ragged record": "A0,A1,A2,A3\n1,2,3,1\n1,2\n",
		"renamed":       "A0,A1,X,A3\n1,2,3,1\n",
		"missing":       "A0,A1,A2\n1,2,3\n",
		"empty":         "",
	} {
		if _, err := table.ReadRowsCSV(strings.NewReader(body), s, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadRowsCSVAllocs pins the rows-CSV reader of appends at a fixed
// cost plus about one allocation per record, the string encoding/csv
// makes for it: at most 64 allocations for 20 rows of 40 attributes,
// and at most 1.25 more per row past that at 200 rows.
func TestReadRowsCSVAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	attrs := attrNames(40)
	s, err := schema.New(attrs)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n int) float64 {
		in, _ := rowsCSV(attrs, n, 3)
		return testing.AllocsPerRun(20, func() {
			if _, err := table.ReadRowsCSV(bytes.NewReader(in), s, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(20), measure(200)
	t.Logf("ReadRowsCSV, 40 attributes: %.0f allocations at 20 rows, %.0f at 200", small, large)
	if small > 64 {
		t.Errorf("20 rows: %.0f allocations, want <= 64", small)
	}
	if perRow := (large - small) / 180; perRow > 1.25 {
		t.Errorf("20 -> 200 rows: %.2f allocations per added row, want <= 1.25", perRow)
	}
}
