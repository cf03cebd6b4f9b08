package hypermine

// One benchmark per table and figure of the paper's evaluation
// chapter (cmd/experiments lists the experiment index), plus ablation
// benchmarks for the builder and dominator variants that
// experiments.RunAblations compares.
//
// The benchmarks run the same experiment code as cmd/experiments, at
// the reduced QuickParams size so `go test -bench=.` completes in
// minutes. Run cmd/experiments for paper-shaped output at full size.

import (
	"sync"
	"testing"

	"hypermine/internal/core"
	"hypermine/internal/cover"
	"hypermine/internal/experiments"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(experiments.QuickParams())
		if benchErr != nil {
			return
		}
		// Pre-build both configurations so individual benchmarks
		// measure the experiment, not the shared model build.
		if _, err := benchEnv.Built("C1"); err != nil {
			benchErr = err
			return
		}
		_, benchErr = benchEnv.Built("C2")
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkModelCounts regenerates the §5.1.2 headline counts.
func BenchmarkModelCounts(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunCounts(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Rows[0].DirectedEdges), "c1-edges")
		b.ReportMetric(float64(rep.Rows[0].TwoToOne), "c1-2to1")
	}
}

// BenchmarkFig51WeightedDegrees regenerates Figure 5.1.
func BenchmarkFig51WeightedDegrees(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig51(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable51TopEdges regenerates Table 5.1.
func BenchmarkTable51TopEdges(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable51(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable52HyperedgeVsEdges regenerates Table 5.2.
func BenchmarkTable52HyperedgeVsEdges(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable52(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig52SimilarityScatter regenerates Figure 5.2.
func BenchmarkFig52SimilarityScatter(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunFig52(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.InCV/rep.EuclidCV, "spread-ratio")
	}
}

// BenchmarkFig53Clusters regenerates Figure 5.3.
func BenchmarkFig53Clusters(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunFig53(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.Purity, "purity")
	}
}

// BenchmarkTable53DominatorAlg5 regenerates Table 5.3.
func BenchmarkTable53DominatorAlg5(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunTable53(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Rows[0].DominatorSize), "dom-size")
	}
}

// BenchmarkTable54DominatorAlg6 regenerates Table 5.4.
func BenchmarkTable54DominatorAlg6(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunTable54(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Rows[0].DominatorSize), "dom-size")
	}
}

// BenchmarkFig54ConfidenceByYear regenerates Figure 5.4 (both panels).
func BenchmarkFig54ConfidenceByYear(b *testing.B) {
	e := benchEnvironment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig54(e, experiments.Alg5, 120); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunFig54(e, experiments.Alg6, 120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAprioriBaselineMine runs the classical Apriori baseline
// (frequent itemsets + rules, via the public API) on the same C1
// experiment table the hypergraph benchmarks use — the end-to-end view
// of the TID-bitset counting engine.
func BenchmarkAprioriBaselineMine(b *testing.B) {
	e := benchEnvironment(b)
	built, err := e.Built("C1")
	if err != nil {
		b.Fatal(err)
	}
	tb := built.InTable
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules, err := MineClassicRules(tb, AprioriOptions{MinSupport: 0.2, MaxLen: 3}, 0.6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(rules)), "rules")
	}
}

// --- Ablation benchmarks (experiments.RunAblations) ---

func benchBuild(b *testing.B, cfg core.Config) {
	e := benchEnvironment(b)
	built, err := e.Built("C1")
	if err != nil {
		b.Fatal(err)
	}
	tb := built.InTable
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.Build(tb, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(m.H.NumEdges()), "edges")
	}
}

// BenchmarkAblationBuildAllPairs: exhaustive 2-to-1 candidate
// enumeration (the paper's §3.2.1 procedure).
func BenchmarkAblationBuildAllPairs(b *testing.B) {
	cfg := core.C1()
	cfg.Candidates = core.AllPairs
	benchBuild(b, cfg)
}

// BenchmarkAblationBuildEdgeSeeded: only evaluate tail pairs with an
// admitted constituent edge.
func BenchmarkAblationBuildEdgeSeeded(b *testing.B) {
	cfg := core.C1()
	cfg.Candidates = core.EdgeSeeded
	benchBuild(b, cfg)
}

// BenchmarkAblationBuildEdgesOnly: directed edges only (MaxTailSize 1).
func BenchmarkAblationBuildEdgesOnly(b *testing.B) {
	cfg := core.C1()
	cfg.MaxTailSize = 1
	benchBuild(b, cfg)
}

// BenchmarkAblationBuildGammaOff: gamma = 1 everywhere (no
// significance pruning) — measures how much Definition 3.7 shrinks the
// model.
func BenchmarkAblationBuildGammaOff(b *testing.B) {
	benchBuild(b, core.Config{K: 3, GammaEdge: 1.0, GammaPair: 1.0})
}

// BenchmarkAblationBuildSerial: single-threaded build, to quantify the
// parallel speedup of the default builder.
func BenchmarkAblationBuildSerial(b *testing.B) {
	cfg := core.C1()
	cfg.Parallelism = 1
	benchBuild(b, cfg)
}

func benchDominator(b *testing.B, opt cover.Options) {
	e := benchEnvironment(b)
	built, err := e.Built("C1")
	if err != nil {
		b.Fatal(err)
	}
	h := built.Model.H
	all := make([]int, h.NumVertices())
	for i := range all {
		all[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cover.DominatorSetCover(h, all, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.DomSet)), "dom-size")
	}
}

// BenchmarkAblationDominatorPlain: Algorithm 6 without enhancements.
func BenchmarkAblationDominatorPlain(b *testing.B) {
	benchDominator(b, cover.Options{})
}

// BenchmarkAblationDominatorEnhanced: Algorithm 6 with Enhancements 1
// and 2 (Algorithms 7/8).
func BenchmarkAblationDominatorEnhanced(b *testing.B) {
	benchDominator(b, cover.Options{Enhancement1: true, Enhancement2: true})
}

// BenchmarkAblationDominatorAlg5 measures Algorithm 5 on the same
// instance for a direct Alg5-vs-Alg6 comparison.
func BenchmarkAblationDominatorAlg5(b *testing.B) {
	e := benchEnvironment(b)
	built, err := e.Built("C1")
	if err != nil {
		b.Fatal(err)
	}
	h := built.Model.H
	all := make([]int, h.NumVertices())
	for i := range all {
		all[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cover.DominatorGreedyDS(h, all, cover.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.DomSet)), "dom-size")
	}
}
