package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hypermine"
	"hypermine/internal/core"
	"hypermine/internal/table"
)

// servingConfig mines the serving workloads' models: every combination
// at least as predictive as its parts is admitted, the rich graph the
// serving layers were sized against.
var servingConfig = core.Config{K: k, GammaEdge: 1, GammaPair: 1}

// The mine workload's fixed parameters.
const (
	mineTables     = 4    // distinct seeded tables the closed loop cycles through
	mineTestRows   = 5000 // held-out rows the classifier is evaluated on
	mineMinSupport = 0.25 // Apriori support threshold
	mineMaxLen     = 3    // Apriori itemset size cap
	mineCheckEdges = 8    // edge weights recomputed by scan per pipeline
)

// stageTimes times one pipeline, call by call.
type stageTimes struct {
	index, build, edges, pairs, triples time.Duration
	dominator, graph, itemsets, rules   time.Duration
	clsBuild, evaluate, total           time.Duration
}

// pipeOut is what one pipeline produced, for verification.
type pipeOut struct {
	model *core.Model
	dom   *hypermine.DominatorResult
	freq  []hypermine.FrequentItemset
}

// pipeline runs the paper's offline pipeline on tb through the public
// facade, timing each call: index the table, mine the hypergraph, find
// the leading indicators, build the similarity graph, mine frequent
// itemsets and one head's rules, then build and evaluate the
// association-based classifier on test. phases adds the WithProgress
// hook that splits the build into its edge, pair and triple phases.
func pipeline(ctx context.Context, tb, test *table.Table, cfg core.Config, phases bool) (stageTimes, *pipeOut, error) {
	var st stageTimes
	start := time.Now()
	mark := start
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}

	tb.Index()
	st.index = lap()

	var opts []hypermine.Option
	var mu sync.Mutex
	last := map[hypermine.Phase]time.Time{}
	if phases {
		opts = append(opts, hypermine.WithProgress(func(ph hypermine.Phase, _, _ int) {
			now := time.Now()
			mu.Lock()
			last[ph] = now
			mu.Unlock()
		}))
	}
	buildStart := mark
	m, err := hypermine.BuildContext(ctx, tb, cfg, opts...)
	if err != nil {
		return st, nil, fmt.Errorf("build: %w", err)
	}
	st.build = lap()
	if phases {
		mu.Lock()
		e, p, t := last[hypermine.PhaseEdges], last[hypermine.PhasePairs], last[hypermine.PhaseTriples]
		mu.Unlock()
		if !e.IsZero() {
			st.edges = e.Sub(buildStart)
		}
		if !p.IsZero() && !e.IsZero() {
			st.pairs = p.Sub(e)
		}
		if !t.IsZero() && !p.IsZero() {
			st.triples = t.Sub(p)
		}
	}

	dom, err := hypermine.LeadingIndicatorsContext(ctx, m.H, nil, hypermine.DominatorOptions{})
	if err != nil {
		return st, nil, fmt.Errorf("dominator: %w", err)
	}
	st.dominator = lap()

	all := make([]int, m.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	if _, err := hypermine.BuildSimilarityGraphContext(ctx, m.H, all); err != nil {
		return st, nil, fmt.Errorf("similarity graph: %w", err)
	}
	st.graph = lap()

	freq, err := hypermine.FrequentItemsetsContext(ctx, tb, hypermine.AprioriOptions{MinSupport: mineMinSupport, MaxLen: mineMaxLen})
	if err != nil {
		return st, nil, fmt.Errorf("frequent itemsets: %w", err)
	}
	st.itemsets = lap()

	targets := classifiable(dom)
	if len(targets) == 0 {
		return st, nil, fmt.Errorf("dominator %v covers no targets", dom.DomSet)
	}
	if _, err := hypermine.MineRulesContext(ctx, m, targets[0], hypermine.MineOptions{MaxRules: 10}); err != nil {
		return st, nil, fmt.Errorf("rules: %w", err)
	}
	st.rules = lap()

	abc, err := hypermine.NewClassifier(m, dom.DomSet, targets)
	if err != nil {
		return st, nil, fmt.Errorf("classifier: %w", err)
	}
	st.clsBuild = lap()
	if _, err := abc.Evaluate(test); err != nil {
		return st, nil, fmt.Errorf("evaluate: %w", err)
	}
	st.evaluate = lap()
	st.total = time.Since(start)
	return st, &pipeOut{model: m, dom: dom, freq: freq}, nil
}

// classifiable returns the covered vertices outside the dominator.
func classifiable(dom *hypermine.DominatorResult) []int {
	in := map[int]bool{}
	for _, v := range dom.DomSet {
		in[v] = true
	}
	var out []int
	for v, c := range dom.Covered {
		if c && !in[v] {
			out = append(out, v)
		}
	}
	return out
}

// verifyPipeline checks a pipeline's output in the benchmark's own
// code: sampled edge weights against a plain table scan, the
// dominator's coverage by set arithmetic, and sampled itemset counts.
func verifyPipeline(tb *table.Table, out *pipeOut) error {
	if err := checkEdgeWeights(tb, out.model.H, mineCheckEdges); err != nil {
		return err
	}
	if err := checkDominator(out.model.H, out.dom); err != nil {
		return err
	}
	return checkItemsets(tb, out.freq, mineCheckEdges)
}

// stageLayers records a set of pipeline timings as per-layer metrics:
// the median of each call over the given pipelines.
func (r *result) stageLayers(sts []stageTimes) {
	med := func(f func(stageTimes) time.Duration) float64 {
		xs := make([]float64, len(sts))
		for i, st := range sts {
			xs[i] = float64(f(st))
		}
		return median(xs)
	}
	r.layer("core.build_s", med(func(s stageTimes) time.Duration { return s.build })/1e9)
	r.layer("core.build_edges_s", med(func(s stageTimes) time.Duration { return s.edges })/1e9)
	r.layer("core.build_pairs_s", med(func(s stageTimes) time.Duration { return s.pairs })/1e9)
	r.layer("core.build_triples_s", med(func(s stageTimes) time.Duration { return s.triples })/1e9)
	r.layer("table.index_ms", med(func(s stageTimes) time.Duration { return s.index })/1e6)
	r.layer("cover.dominator_ms", med(func(s stageTimes) time.Duration { return s.dominator })/1e6)
	r.layer("similarity.graph_ms", med(func(s stageTimes) time.Duration { return s.graph })/1e6)
	r.layer("apriori.itemsets_ms", med(func(s stageTimes) time.Duration { return s.itemsets })/1e6)
	r.layer("core.rules_ms", med(func(s stageTimes) time.Duration { return s.rules })/1e6)
	r.layer("classify.build_ms", med(func(s stageTimes) time.Duration { return s.clsBuild })/1e6)
	r.layer("classify.evaluate_ms", med(func(s stageTimes) time.Duration { return s.evaluate })/1e6)
}

// stageSpans records one pipeline's calls as spans of one trace.
func stageSpans(l *spanLog, start time.Time, st stageTimes) {
	id := l.nextTrace()
	at := int64(start.Sub(l.epoch))
	for _, s := range []struct {
		layer string
		d     time.Duration
	}{
		{"table.index", st.index}, {"core.build", st.build}, {"cover.dominator", st.dominator},
		{"similarity.graph", st.graph}, {"apriori.itemsets", st.itemsets}, {"core.rules", st.rules},
		{"classify.build", st.clsBuild}, {"classify.evaluate", st.evaluate},
	} {
		l.record(id, s.layer, at, at+int64(s.d))
		at += int64(s.d)
	}
}

// mineInst is one set-up of the mine workload: the seeded tables the
// loop cycles through and the held-out evaluation table.
type mineInst struct {
	attrs []string
	cols  [][][]byte
	test  *table.Table
}

func newMineInst(ctx context.Context, cfg config, p params) (*mineInst, error) {
	d := newDist(p.attrs)
	inst := &mineInst{attrs: d.attrs}
	for i := range mineTables {
		inst.cols = append(inst.cols, d.columns(newRNG(cfg.seed, streamMine+uint64(i)), p.rows))
	}
	test, err := d.table(newRNG(cfg.seed, streamMine+mineTables), mineTestRows)
	if err != nil {
		return nil, err
	}
	inst.test = test
	// Warm-up: one full pipeline, so first-use costs land in set-up.
	tb, err := inst.table(0)
	if err != nil {
		return nil, err
	}
	if _, _, err := pipeline(ctx, tb, test, hypermine.C1(), false); err != nil {
		return nil, fmt.Errorf("warm-up pipeline: %w", err)
	}
	return inst, nil
}

// table returns a fresh table of the i-th seeded dataset: a new value
// each time, so no index or other cache carries between pipelines.
func (m *mineInst) table(i int) (*table.Table, error) {
	return table.FromRawColumns(m.attrs, k, m.cols[i%len(m.cols)])
}

func runMine(ctx context.Context, cfg config) (*result, error) {
	p, _ := workloadParams("mine")
	res := newResult(p.name)
	var inst *mineInst
	var setups []float64
	for range setupReps {
		t0 := time.Now()
		var err error
		if inst, err = newMineInst(ctx, cfg, p); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	spans := newSpanLog()
	var totals, totalsTraced []float64
	var stages []stageTimes
	var allocs float64
	var last *pipeOut // the last mined model stays live, so heap_live_mb counts one model
	measure := time.Duration(cfg.seconds) * time.Second
	begin := time.Now()
	rt0 := readRT()
	for i := 0; time.Since(begin) < measure; i++ {
		tb, err := inst.table(i)
		if err != nil {
			return nil, err
		}
		// A traced run times its second half with the progress hook
		// and spans on, so the two halves give the tracing overhead.
		traced := cfg.traced && time.Since(begin) >= measure/2
		res.attempted++
		a0 := mallocs()
		start := time.Now()
		st, out, err := pipeline(ctx, tb, inst.test, hypermine.C1(), traced)
		allocs += float64(mallocs() - a0)
		if err != nil {
			res.problem(1, fmt.Sprintf("pipeline %d: %v", i, err))
			continue
		}
		if err := verifyPipeline(tb, out); err != nil {
			res.problem(1, fmt.Sprintf("pipeline %d: %v", i, err))
			continue
		}
		last = out
		if traced {
			stages = append(stages, st)
			totalsTraced = append(totalsTraced, st.total.Seconds())
			stageSpans(spans, start, st)
		} else {
			totals = append(totals, st.total.Seconds())
		}
	}
	rt := rt0.to(readRT())
	heap := heapLiveMB()
	runtime.KeepAlive(inst)
	runtime.KeepAlive(last)

	n := len(totals)
	p50, ok50 := percentile(totals, 0.5)
	q := tailQ(n, 0.9)
	tail, okTail := percentile(totals, q)
	res.commonEndToEnd(median(setups), allocs/float64(max(1, res.attempted)), heap)
	res.note("set-ups (s): %.3f", setups)
	res.note("mine_s %.4f s (median of %d pipelines, closed loop, one at a time)%s", p50, n, okNote(ok50))
	res.note("mine tail %.4f s (%s)", tail, tailLabel(q, n, okTail))
	res.note("failed_frac %g (%d/%d)", float64(res.failed)/float64(max(1, res.attempted)), res.failed, res.attempted)

	if cfg.traced {
		res.stageLayers(stages)
		res.runtimeLayers(rt)
		res.layer("gen.sent", float64(res.attempted))
		if len(totals) > 0 && len(totalsTraced) > 0 {
			res.layer("trace.overhead_pct", (median(totalsTraced)-median(totals))/median(totals)*100)
		}
		if err := spans.write(spanPath(cfg, p.name)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func okNote(ok bool) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(" FEWER THAN %d SAMPLES BEYOND THE MEDIAN", minBeyond)
}

func spanPath(cfg config, workload string) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.json", spansDir, workload, cfg.seed)
}
