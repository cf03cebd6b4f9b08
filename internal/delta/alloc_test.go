package delta_test

import (
	"context"
	"math/rand"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/table"
	"hypermine/internal/testutil"
)

// primedDataset mines a 12x1500 base under cfg and primes a dataset
// with one 10-row append, so later appends are steady state (counts
// seeded, TID index built). It returns the dataset and a 10-row batch.
func primedDataset(tb testing.TB, cfg core.Config) (*delta.Dataset, [][]table.Value) {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	const attrs, k = 12, 3
	base, err := table.FromRows(attrNames(attrs), k, genRows(rng, 1500, attrs, k, 0.25, 0))
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.Build(base, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := delta.New(m, delta.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	batch := genRows(rng, 10, attrs, k, 0.25, 0)
	if _, _, err := ds.AppendRowsContext(context.Background(), batch); err != nil {
		tb.Fatal(err)
	}
	return ds, batch
}

// TestAppendAllocsIndependentOfEdges pins the allocation-lean append:
// a steady-state 10-row append assembles its graph with a fixed number
// of allocations, so two datasets that differ only in how many edges
// their gammas admit allocate within a small constant of each other.
func TestAppendAllocsIndependentOfEdges(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts unreliable under the race detector")
	}
	measure := func(cfg core.Config) (edges int, allocs float64) {
		ds, batch := primedDataset(t, cfg)
		allocs = testing.AllocsPerRun(20, func() {
			if _, _, err := ds.AppendRowsContext(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		})
		return ds.Model().H.NumEdges(), allocs
	}
	fewEdges, fewAllocs := measure(core.Config{GammaEdge: 1.3, GammaPair: 1.2})
	manyEdges, manyAllocs := measure(core.Config{GammaEdge: 1.0, GammaPair: 1.0})
	t.Logf("%d edges: %v allocs per append; %d edges: %v", fewEdges, fewAllocs, manyEdges, manyAllocs)
	if manyEdges < fewEdges+500 {
		t.Fatalf("fixtures differ by only %d edges; the pin needs many", manyEdges-fewEdges)
	}
	if manyAllocs > fewAllocs+appendAllocSlack {
		t.Errorf("%d more edges cost %v more allocations per append, want at most %d",
			manyEdges-fewEdges, manyAllocs-fewAllocs, appendAllocSlack)
	}
}

// appendAllocSlack bounds what the edge count may add to an append's
// allocations. The admitted lists are sized exactly, so only the
// graph's reserved key map may take a step or two more as it grows
// (132 vs 792 edges: 42 vs 43 allocations).
const appendAllocSlack = 4

// BenchmarkDeltaAppend measures one steady-state 10-row append on the
// 12x1500 gamma=1 dataset of TestAppendFasterThanRemineBar.
func BenchmarkDeltaAppend(b *testing.B) {
	ds, batch := primedDataset(b, core.Config{GammaEdge: 1.0, GammaPair: 1.0})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.AppendRowsContext(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}
