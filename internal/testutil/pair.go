package testutil

import (
	"math"
	"testing"
)

// BestOfPair times two operations with testing.Benchmark in three
// interleaved rounds and returns each side's fastest ns/op. It is the
// estimator behind the repo's Test…Bar perf limits. Interleaving means
// load from concurrently running tests slows both sides alike, and
// keeping each side's minimum pushes the several-percent run-to-run
// noise of a one-shot benchmark on a small host below the 2% ratios
// the bars enforce. The first error either operation returns fails t.
func BestOfPair(t testing.TB, a, b func() error) (aNs, bNs float64) {
	t.Helper()
	measure := func(op func() error) float64 {
		var err error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && err == nil; i++ {
				err = op()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	aNs, bNs = math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		aNs = min(aNs, measure(a))
		bNs = min(bNs, measure(b))
	}
	return aNs, bNs
}
