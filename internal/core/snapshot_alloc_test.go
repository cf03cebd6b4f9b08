package core_test

import (
	"bytes"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/core"
)

// TestReadSnapshotAllocsBelowEdgeCount: decoding a serving-sized
// snapshot allocates per model, not per edge. All tails and heads
// share one id slab and the edge list is sized once, so the count
// stays far below the number of edges the snapshot holds.
func TestReadSnapshotAllocsBelowEdgeCount(t *testing.T) {
	m := benchfix.ModelWorkload(24, 10000)
	var buf bytes.Buffer
	if err := core.WriteSnapshot(&buf, m, core.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.ReadSnapshot(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	edges := m.H.NumEdges()
	t.Logf("%d edges: %v allocations per decode", edges, allocs)
	if edges < 1000 {
		t.Fatalf("fixture holds only %d edges; the guard needs many", edges)
	}
	if allocs > float64(edges)/8 {
		t.Errorf("ReadSnapshot costs %v allocations for %d edges", allocs, edges)
	}
}
