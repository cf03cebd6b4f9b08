package similarity_test

import (
	"context"
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/similarity"
)

// BenchmarkInSim measures one in-similarity evaluation on a dense
// random hypergraph.
func BenchmarkInSim(b *testing.B) {
	h := benchfix.RandomHypergraph(3, 60, 5000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = similarity.InSim(h, i%60, (i+1)%60)
	}
}

// BenchmarkOutSim measures one out-similarity evaluation.
func BenchmarkOutSim(b *testing.B) {
	h := benchfix.RandomHypergraph(3, 60, 5000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = similarity.OutSim(h, i%60, (i+1)%60)
	}
}

// BenchmarkBuildGraph measures full similarity-graph construction —
// the O(n^2) pre-step of Figure 5.3 — at default (GOMAXPROCS)
// parallelism.
func BenchmarkBuildGraph(b *testing.B) {
	h := benchfix.RandomHypergraph(3, 40, 2000, 2)
	all := make([]int, 40)
	for i := range all {
		all[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.BuildGraphContext(context.Background(), h, all, similarity.GraphOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildGraphSerial pins Parallelism to 1, quantifying the
// worker-pool speedup of the default.
func BenchmarkBuildGraphSerial(b *testing.B) {
	h := benchfix.RandomHypergraph(3, 40, 2000, 2)
	all := make([]int, 40)
	for i := range all {
		all[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := similarity.BuildGraphContext(context.Background(), h, all, similarity.GraphOptions{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
