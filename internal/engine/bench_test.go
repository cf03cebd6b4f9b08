package engine

import (
	"context"
	"testing"

	"hypermine/internal/table"
)

// BenchmarkPredictParallel classifies one observation per op from
// b.RunParallel goroutines through one engine, the path concurrent
// /classify requests share; run it at several -cpu values to see how
// borrowing an idle predictor scales.
func BenchmarkPredictParallel(b *testing.B) {
	ctx := context.Background()
	e, err := New(testModel(b, 11, 10, 400, 2), Options{})
	if err != nil {
		b.Fatal(err)
	}
	targets, err := e.Targets(ctx)
	if err != nil {
		b.Fatal(err)
	}
	dom, err := e.Dominator(ctx, DefaultDomSpec())
	if err != nil {
		b.Fatal(err)
	}
	domVals := make([]table.Value, len(dom.DomSet))
	for j := range domVals {
		domVals[j] = table.Value(1 + j%3)
	}
	if _, _, err := e.Predict(ctx, domVals, targets[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := e.Predict(ctx, domVals, targets[0]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
