package hypergraph_test

import (
	"testing"

	"hypermine/internal/benchfix"
)

// BenchmarkLookup measures the packed-key probe on restricted-model
// edges — the tentpole's 0 allocs/op fast path.
func BenchmarkLookup(b *testing.B) {
	h := benchfix.RandomHypergraph(7, 80, 4000, 3)
	n := h.NumEdges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := h.Edge(i % n)
		if _, ok := h.Lookup(e.Tail, e.Head); !ok {
			b.Fatal("edge vanished")
		}
	}
}

// BenchmarkLookupMiss measures a failing packed probe (the common case
// inside OutSim/InSim substitution scans).
func BenchmarkLookupMiss(b *testing.B) {
	h := benchfix.RandomHypergraph(7, 80, 4000, 3)
	tail := []int{78, 79}
	head := []int{77}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := h.Lookup(tail, head); ok {
			b.Fatal("phantom edge")
		}
	}
}
