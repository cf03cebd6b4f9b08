package classify

import (
	"bytes"
	"math/rand"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// TestABCRebuildFromLoadedModel: a classifier built from a persisted
// and reloaded model must behave identically to one built from the
// original — same edge wiring and the same prediction (value and
// confidence) for every observation.
func TestABCRebuildFromLoadedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	attrs := []string{"A", "B", "C", "D", "E"}
	tb, err := table.New(attrs, 3)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]table.Value, len(attrs))
	for i := 0; i < 300; i++ {
		base := table.Value(1 + rng.Intn(3))
		for j := range row {
			row[j] = base
			if rng.Intn(4) == 0 { // correlated columns with noise
				row[j] = table.Value(1 + rng.Intn(3))
			}
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	m, err := core.Build(tb, core.Config{GammaEdge: 1.0, GammaPair: 1.0})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, m, core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	dom, targets := []int{0, 1}, []int{2, 3, 4}
	orig, err := NewABC(m, dom, targets)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewABC(loaded, dom, targets)
	if err != nil {
		t.Fatal(err)
	}

	for _, y := range targets {
		if orig.EdgeCount(y) == 0 {
			t.Fatalf("fixture produced no usable edges for target %d", y)
		}
		if orig.EdgeCount(y) != rebuilt.EdgeCount(y) {
			t.Fatalf("target %d: %d edges originally, %d after reload", y, orig.EdgeCount(y), rebuilt.EdgeCount(y))
		}
	}
	domVals := make([]table.Value, len(dom))
	for i := 0; i < tb.NumRows(); i++ {
		for j, a := range dom {
			domVals[j] = tb.At(i, a)
		}
		for _, y := range targets {
			v1, c1, err := orig.Predict(domVals, y)
			if err != nil {
				t.Fatal(err)
			}
			v2, c2, err := rebuilt.Predict(domVals, y)
			if err != nil {
				t.Fatal(err)
			}
			if v1 != v2 || c1 != c2 {
				t.Fatalf("row %d target %d: original predicts (%d, %v), rebuilt (%d, %v)", i, y, v1, c1, v2, c2)
			}
		}
	}

	// Aggregate evaluation agrees too.
	e1, err := orig.Evaluate(tb)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := rebuilt.Evaluate(loaded.Table)
	if err != nil {
		t.Fatal(err)
	}
	for y, acc := range e1 {
		if e2[y] != acc {
			t.Fatalf("target %d: accuracy %v originally, %v after reload", y, acc, e2[y])
		}
	}
}
