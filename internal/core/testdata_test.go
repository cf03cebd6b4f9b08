package core

import (
	"testing"

	"hypermine/internal/table"
)

// The three worked example databases of §3.1, already discretized
// (Tables 3.2, 3.4, 3.6). Gene values: down=1, steady=2, up=3.
// Interest values: l=1, m=2, h=3.

func patientDB(t *testing.T) *table.Table {
	t.Helper()
	tb, err := table.FromRows([]string{"A", "C", "B", "H"}, 16, [][]table.Value{
		{2, 10, 13, 7},
		{6, 16, 16, 8},
		{3, 12, 13, 7},
		{1, 9, 10, 6},
		{3, 12, 13, 7},
		{3, 12, 11, 7},
		{4, 13, 14, 7},
		{8, 12, 15, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func geneDB(t *testing.T) *table.Table {
	t.Helper()
	tb, err := table.FromRows([]string{"G1", "G2", "G3", "G4"}, 3, [][]table.Value{
		{1, 1, 2, 2},
		{2, 1, 1, 3},
		{1, 1, 1, 1},
		{1, 1, 1, 3},
		{2, 1, 1, 3},
		{2, 1, 1, 3},
		{2, 1, 1, 3},
		{3, 1, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func interestDB(t testing.TB) *table.Table {
	t.Helper()
	tb, err := table.FromRows([]string{"R", "P", "M", "E"}, 3, [][]table.Value{
		{3, 3, 1, 2},
		{2, 3, 2, 2},
		{1, 1, 3, 3},
		{2, 1, 3, 2},
		{3, 3, 1, 2},
		{3, 3, 2, 2},
		{2, 2, 2, 2},
		{3, 3, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}
