package engine

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"hypermine/internal/hypergraph"
	"hypermine/internal/table"
)

// classifyOnce builds an engine over a fresh model, classifies one
// observation through the predictor pool, and returns only a weak
// pointer to the model's graph: once it returns, nothing the test
// holds reaches the model.
func classifyOnce(t *testing.T) weak.Pointer[hypergraph.H] {
	t.Helper()
	ctx := context.Background()
	m := testModel(t, 11, 10, 400, 2)
	e, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := e.Targets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := e.Dominator(ctx, DefaultDomSpec())
	if err != nil {
		t.Fatal(err)
	}
	domVals := make([]table.Value, len(dom.DomSet))
	for j := range domVals {
		domVals[j] = 1
	}
	if _, _, err := e.Predict(ctx, domVals, targets[0]); err != nil {
		t.Fatal(err)
	}
	p, err := e.BorrowPredictor(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.ReturnPredictor(ctx, p)
	return weak.Make(m.H)
}

// TestRetiredModelFreedAfterOneGCBar: once an engine that has
// classified is dropped (its generation replaced), one collection
// frees its model. Nothing process-global may reach model data: a
// sync.Pool of predictors did, since the runtime keeps every pool used
// since the last collection, and its victim cache, for one more cycle,
// so each retired generation outlived a second GC.
func TestRetiredModelFreedAfterOneGCBar(t *testing.T) {
	wp := classifyOnce(t)
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a retired engine's model survives one GC after a classify")
	}
}
