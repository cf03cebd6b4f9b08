// Package engine implements the prepared-model query engine: a
// first-class, concurrency-safe handle around a mined *core.Model
// that lazily builds and memoizes every derived artifact the paper's
// repeated-query workloads need — the TID-bitset index, the all-pairs
// similarity graph, dominator results keyed by algorithm options, the
// prepared association-based classifier with its predictor pool, and
// a bounded LRU of mined-rule answers keyed by (head, MineOptions).
//
// One Engine is shared by every consumer of a model: the library
// facade, the serving registry (which only adds lifecycle — hot swap,
// refcounts, eviction — on top), the HTTP server, and the CLI. The
// discipline is "prepare once, probe cheaply": the first query that
// needs an artifact pays for its construction exactly once, under
// singleflight-style once-per-key initialization, and every later
// query (from any goroutine) reads the memoized result lock-free.
//
// Construction runs under the winning caller's context. If that build
// fails with a context error the memo entry is cleared so a later
// caller retries; any other build error is sticky, like the artifact
// would have been. Waiters blocked on someone else's build stop
// waiting when their own context ends.
//
// The transport-neutral typed query layer (Request/Response and
// Engine.Do) lives in request.go; HTTP handlers and in-process Go
// callers execute identical code through it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hypermine/internal/classify"
	"hypermine/internal/core"
	"hypermine/internal/cover"
	"hypermine/internal/runopt"
	"hypermine/internal/similarity"
	"hypermine/internal/table"
)

// DefaultRuleCacheEntries is the default bound on the mined-rule LRU.
const DefaultRuleCacheEntries = 64

// Options tunes an Engine.
type Options struct {
	// RuleCacheEntries bounds the mined-rule LRU (in cached answers,
	// each one full MineRules result). 0 means DefaultRuleCacheEntries;
	// negative disables rule caching entirely.
	RuleCacheEntries int
}

// DomSpec keys a memoized dominator computation. It is the comparable
// subset of cover.Options plus the algorithm choice; runtime-only
// hooks are deliberately excluded — a memoized artifact cannot replay
// progress callbacks.
type DomSpec struct {
	// Algorithm is 5 (DominatorGreedyDS, Algorithm 5) or 6
	// (DominatorSetCover, Algorithm 6). 0 means 6.
	Algorithm int
	// Complete forces full coverage via self-covering.
	Complete bool
	// Enhancement1 and Enhancement2 are Algorithms 7 and 8.
	Enhancement1 bool
	Enhancement2 bool
}

// DefaultDomSpec is the serving policy: Algorithm 6 with both
// enhancements, matching hypermine.LeadingIndicators and the
// pre-engine registry preparation.
func DefaultDomSpec() DomSpec {
	return DomSpec{Algorithm: 6, Enhancement1: true, Enhancement2: true}
}

func (s DomSpec) normalize() (DomSpec, error) {
	if s.Algorithm == 0 {
		s.Algorithm = 6
	}
	if s.Algorithm != 5 && s.Algorithm != 6 {
		return s, badf("unknown dominator algorithm %d (want 5 or 6)", s.Algorithm)
	}
	return s, nil
}

// flight is one singleflight build: done is closed once val/err are
// final, so waiters synchronize on the channel.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// memo is a singleflight-memoized value: concurrent callers share one
// build, the warm path is a lock-free atomic load, and a build that
// failed with a context error is forgotten so a later caller retries.
type memo[T any] struct {
	ready atomic.Pointer[flight[T]] // completed build (sticky result)
	mu    sync.Mutex
	cur   *flight[T] // in-flight or completed build
}

// cached returns the completed result without evaluating (or even
// allocating) a builder — the zero-cost warm path.
//
//hyper:noalloc
func (m *memo[T]) cached() (T, error, bool) {
	if f := m.ready.Load(); f != nil {
		return f.val, f.err, true
	}
	var zero T
	return zero, nil, false
}

// get returns the memoized value, building it via build if this caller
// wins the race. Losers wait for the winner, but give up with ctx.Err()
// when their own context ends first (the build keeps running).
func (m *memo[T]) get(ctx context.Context, build func() (T, error)) (T, error) {
	for {
		if f := m.ready.Load(); f != nil {
			return f.val, f.err
		}
		m.mu.Lock()
		if f := m.cur; f != nil {
			m.mu.Unlock()
			select {
			case <-f.done:
				if isCtxErr(f.err) {
					// The winner's context died, not ours: its failure
					// must not surface as this caller's 499/504. Retry —
					// the slot was cleared, so someone (possibly us)
					// rebuilds under a live context.
					continue
				}
				return f.val, f.err
			case <-ctx.Done():
				var zero T
				return zero, ctx.Err()
			}
		}
		f := &flight[T]{done: make(chan struct{})}
		m.cur = f
		m.mu.Unlock()

		f.val, f.err = build()
		if isCtxErr(f.err) {
			// The winner's context died mid-build: that is the caller's
			// failure, not the artifact's. Clear the slot so the next
			// query retries instead of serving a poisoned cache forever.
			m.mu.Lock()
			m.cur = nil
			m.mu.Unlock()
		} else {
			m.ready.Store(f)
		}
		close(f.done)
		return f.val, f.err
	}
}

func isCtxErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// classifierSet is the prepared classification artifact for one
// dominator spec: the derived targets, the prebuilt ABC with its
// predictor pool, or the sticky reason classification is unavailable
// (row-less snapshot, or a dominator covering no targets).
type classifierSet struct {
	dom         *cover.Result
	targets     []int
	abc         *classify.ABC
	unavailable error
	pool        sync.Pool // *classify.Predictor, only when abc != nil
}

// Engine is the prepared-model query handle. It is safe for
// concurrent use; the underlying model must be immutable (mined
// models and loaded snapshots are).
type Engine struct {
	model *core.Model
	opt   Options

	index memo[*table.Index]
	sim   memo[*similarity.Graph]

	defaultDom *memo[*domAnswer]
	defaultCls *memo[*classifierSet]

	mu   sync.Mutex // guards the keyed memo maps (shape only)
	doms map[DomSpec]*memo[*domAnswer]
	cls  map[DomSpec]*memo[*classifierSet]

	rules ruleCache

	// Derived-artifact accounting and observability counters.
	derivedBytes     atomic.Int64
	indexBuilds      atomic.Int64
	similarityBuilds atomic.Int64
	dominatorBuilds  atomic.Int64
	classifierBuilds atomic.Int64
}

// New returns an Engine over the model. The model's hypergraph is
// required; the training table may be absent (a row-less snapshot, or
// the edge-filtered graph the CLI's dominator -top builds), in which
// case rule mining and classification report unavailability instead
// of answering.
func New(m *core.Model, opt Options) (*Engine, error) {
	if m == nil || m.H == nil {
		return nil, errors.New("engine: nil model or hypergraph")
	}
	if opt.RuleCacheEntries == 0 {
		opt.RuleCacheEntries = DefaultRuleCacheEntries
	}
	e := &Engine{
		model: m,
		opt:   opt,
		doms:  make(map[DomSpec]*memo[*domAnswer]),
		cls:   make(map[DomSpec]*memo[*classifierSet]),
	}
	e.rules.cap = opt.RuleCacheEntries
	e.rules.entries = make(map[ruleKey]*ruleEntry)
	def, _ := DefaultDomSpec().normalize()
	e.defaultDom = &memo[*domAnswer]{}
	e.defaultCls = &memo[*classifierSet]{}
	e.doms[def] = e.defaultDom
	e.cls[def] = e.defaultCls
	return e, nil
}

// Model returns the underlying immutable model.
func (e *Engine) Model() *core.Model { return e.model }

// Index returns the memoized TID-bitset index of the training table,
// building it on first use.
func (e *Engine) Index(ctx context.Context) (*table.Index, error) {
	if v, err, ok := e.index.cached(); ok {
		return v, err
	}
	return e.index.get(ctx, func() (*table.Index, error) {
		if e.model.Table == nil || e.model.Table.NumRows() == 0 {
			return nil, unavailablef("engine: model has no training rows to index")
		}
		defer runopt.PhaseLogFrom(ctx).Span(runopt.PhaseIndex)()
		ix := e.model.Table.Index()
		e.indexBuilds.Add(1)
		e.derivedBytes.Add(indexFootprint(e.model.Table))
		return ix, nil
	})
}

// SimilarityGraph returns the memoized all-vertices similarity graph,
// building it on first use under ctx.
func (e *Engine) SimilarityGraph(ctx context.Context) (*similarity.Graph, error) {
	if v, err, ok := e.sim.cached(); ok {
		return v, err
	}
	return e.sim.get(ctx, func() (*similarity.Graph, error) {
		defer runopt.PhaseLogFrom(ctx).Span(runopt.PhaseSimilarity)()
		g, err := similarity.BuildGraphContext(ctx, e.model.H, e.allVertices(), similarity.GraphOptions{})
		if err != nil {
			return nil, err
		}
		e.similarityBuilds.Add(1)
		e.derivedBytes.Add(simFootprint(g))
		return g, nil
	})
}

// domAnswer is one memoized dominator together with what every answer
// derives from it: the classifiable targets and the dominator and
// target names, computed once when the dominator is built.
type domAnswer struct {
	res         *cover.Result
	targets     []int
	domNames    []string
	targetNames []string
}

// Dominator returns the memoized dominator for the spec, building it
// on first use under ctx. Distinct specs memoize independently.
func (e *Engine) Dominator(ctx context.Context, spec DomSpec) (*cover.Result, error) {
	ans, err := e.dominator(ctx, spec)
	if err != nil {
		return nil, err
	}
	return ans.res, nil
}

// dominator is Dominator with the derived names and targets.
func (e *Engine) dominator(ctx context.Context, spec DomSpec) (*domAnswer, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	m := e.domMemo(spec)
	if v, err, ok := m.cached(); ok {
		return v, err
	}
	return m.get(ctx, func() (*domAnswer, error) {
		defer runopt.PhaseLogFrom(ctx).Span(runopt.PhaseDominator)()
		opt := cover.Options{
			Complete:     spec.Complete,
			Enhancement1: spec.Enhancement1,
			Enhancement2: spec.Enhancement2,
		}
		var res *cover.Result
		var err error
		if spec.Algorithm == 5 {
			res, err = cover.DominatorGreedyDSContext(ctx, e.model.H, e.allVertices(), opt)
		} else {
			res, err = cover.DominatorSetCoverContext(ctx, e.model.H, e.allVertices(), opt)
		}
		if err != nil {
			return nil, err
		}
		ans := &domAnswer{res: res, targets: targetsOf(res)}
		ans.domNames = e.vertexNames(res.DomSet)
		ans.targetNames = e.vertexNames(ans.targets)
		e.dominatorBuilds.Add(1)
		e.derivedBytes.Add(domFootprint(ans))
		return ans, nil
	})
}

// vertexNames names the vertices, in order (never nil).
func (e *Engine) vertexNames(vs []int) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = e.model.H.VertexName(v)
	}
	return names
}

func (e *Engine) domMemo(spec DomSpec) *memo[*domAnswer] {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.doms[spec]
	if m == nil {
		m = &memo[*domAnswer]{}
		e.doms[spec] = m
	}
	return m
}

func (e *Engine) clsMemo(spec DomSpec) *memo[*classifierSet] {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.cls[spec]
	if m == nil {
		m = &memo[*classifierSet]{}
		e.cls[spec] = m
	}
	return m
}

// classifierSetFor returns the memoized prepared classifier for a
// dominator spec. Classification being unavailable on this model is a
// property of the (successfully built) set, not a build failure.
func (e *Engine) classifierSetFor(ctx context.Context, spec DomSpec) (*classifierSet, error) {
	spec, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	m := e.clsMemo(spec)
	if v, err, ok := m.cached(); ok {
		return v, err
	}
	return m.get(ctx, func() (*classifierSet, error) {
		return e.buildClassifierSet(ctx, spec)
	})
}

func (e *Engine) buildClassifierSet(ctx context.Context, spec DomSpec) (*classifierSet, error) {
	ans, err := e.dominator(ctx, spec)
	if err != nil {
		return nil, err
	}
	dom := ans.res
	// The dominator's own time is attributed above; this span covers
	// the classifier-specific work (association tables, pool setup).
	defer runopt.PhaseLogFrom(ctx).Span(runopt.PhaseClassifier)()
	set := &classifierSet{dom: dom, targets: ans.targets}
	switch {
	case e.model.RequireRows() != nil:
		set.unavailable = unavailablef("engine: model cannot classify: %v", e.model.RequireRows())
	case len(set.targets) == 0:
		set.unavailable = unavailablef("engine: model cannot classify: dominator covers no targets")
	default:
		abc, err := classify.NewABC(e.model, dom.DomSet, set.targets)
		if err != nil {
			return nil, internalf("engine: classifier: %v", err)
		}
		set.abc = abc
		set.pool.New = func() any { return abc.NewPredictor() }
	}
	e.classifierBuilds.Add(1)
	e.derivedBytes.Add(classifierFootprint(set))
	return set, nil
}

// targetsOf derives the classifiable targets of a dominator result:
// covered vertices outside the dominator, ascending.
func targetsOf(res *cover.Result) []int {
	inDom := make(map[int]bool, len(res.DomSet))
	for _, v := range res.DomSet {
		inDom[v] = true
	}
	var targets []int
	for v, cov := range res.Covered {
		if cov && !inDom[v] {
			targets = append(targets, v)
		}
	}
	sort.Ints(targets)
	return targets
}

// Targets returns the classifiable targets under the default
// dominator spec (TargetsFor with DefaultDomSpec).
func (e *Engine) Targets(ctx context.Context) ([]int, error) {
	return e.TargetsFor(ctx, DefaultDomSpec())
}

// TargetsFor returns the classifiable targets for a dominator spec.
func (e *Engine) TargetsFor(ctx context.Context, spec DomSpec) ([]int, error) {
	set, err := e.classifierSetFor(ctx, spec)
	if err != nil {
		return nil, err
	}
	return set.targets, nil
}

// Classifier returns the prepared ABC under the default dominator
// spec, or the sticky reason classification is unavailable.
func (e *Engine) Classifier(ctx context.Context) (*classify.ABC, error) {
	return e.ClassifierFor(ctx, DefaultDomSpec())
}

// ClassifierFor is Classifier for an explicit dominator spec.
func (e *Engine) ClassifierFor(ctx context.Context, spec DomSpec) (*classify.ABC, error) {
	set, err := e.classifierSetFor(ctx, spec)
	if err != nil {
		return nil, err
	}
	if set.abc == nil {
		return nil, set.unavailable
	}
	return set.abc, nil
}

// BorrowPredictor takes a scratch-reusing predictor from the default
// classifier's pool; pair with ReturnPredictor. Steady-state borrows
// perform no heap allocation.
//
//hyper:noalloc
func (e *Engine) BorrowPredictor(ctx context.Context) (*classify.Predictor, error) {
	set, err := e.warmClassifierSet(ctx)
	if err != nil {
		return nil, err
	}
	return set.pool.Get().(*classify.Predictor), nil
}

// ReturnPredictor puts a borrowed predictor back in the pool.
func (e *Engine) ReturnPredictor(ctx context.Context, p *classify.Predictor) {
	if p == nil {
		return
	}
	if set, _, ok := e.defaultCls.cached(); ok && set != nil && set.abc != nil {
		set.pool.Put(p)
	}
}

// warmClassifierSet resolves the default classifier set with a
// zero-allocation warm path (no builder closure is constructed once
// the set is memoized).
//
//hyper:noalloc
func (e *Engine) warmClassifierSet(ctx context.Context) (*classifierSet, error) {
	set, err, ok := e.defaultCls.cached()
	if !ok {
		set, err = e.classifierSetFor(ctx, DefaultDomSpec())
	}
	if err != nil {
		return nil, err
	}
	if set.abc == nil {
		return nil, set.unavailable
	}
	return set, nil
}

// Predict classifies one observation for target through a pooled
// predictor: domVals holds the dominator values in Dominator() order.
// Warm calls (classifier built, pool warm) make zero heap allocations.
//
//hyper:noalloc
func (e *Engine) Predict(ctx context.Context, domVals []table.Value, target int) (table.Value, float64, error) {
	set, err := e.warmClassifierSet(ctx)
	if err != nil {
		return 0, 0, err
	}
	p := set.pool.Get().(*classify.Predictor)
	v, conf, err := p.Predict(domVals, target)
	set.pool.Put(p)
	return v, conf, err
}

// PredictBatch classifies many observations for target through a
// pooled predictor; see classify.Predictor.PredictBatchContext for the
// domVals/out/conf contract. Beyond warm pool state it allocates
// nothing.
//
//hyper:noalloc
func (e *Engine) PredictBatch(ctx context.Context, domVals []table.Value, target int, out []table.Value, conf []float64) error {
	set, err := e.warmClassifierSet(ctx)
	if err != nil {
		return err
	}
	p := set.pool.Get().(*classify.Predictor)
	err = p.PredictBatchContext(ctx, domVals, target, out, conf)
	set.pool.Put(p)
	return err
}

// Rules returns the mined rules for head under opt, memoized in the
// bounded LRU keyed by (head, thresholds, MaxRules). The returned
// slice is shared between callers and must be treated as immutable.
// Calls carrying opt.Run hooks bypass the cache — a memoized answer
// cannot replay progress callbacks.
func (e *Engine) Rules(ctx context.Context, head int, opt core.MineOptions) ([]core.ScoredRule, error) {
	ans, err := e.ruleAnswer(ctx, head, opt)
	return ans.rules, err
}

// ruleAnswer is Rules with the rules rendered, memoized together.
func (e *Engine) ruleAnswer(ctx context.Context, head int, opt core.MineOptions) (ruleAnswer, error) {
	if err := e.model.RequireRows(); err != nil {
		return ruleAnswer{}, unavailablef("engine: %v", err)
	}
	if head < 0 || head >= e.model.H.NumVertices() {
		return ruleAnswer{}, badf("head attribute %d out of range", head)
	}
	// The negated ranges also reject NaN, which must never become a
	// cache key: a NaN key matches no lookup, so it could never be hit
	// or evicted.
	if !(opt.MinSupport >= 0 && opt.MinSupport <= 1) {
		return ruleAnswer{}, badf("min_support %v outside [0, 1]", opt.MinSupport)
	}
	if !(opt.MinConfidence >= 0 && opt.MinConfidence <= 1) {
		return ruleAnswer{}, badf("min_confidence %v outside [0, 1]", opt.MinConfidence)
	}
	mine := func() (ruleAnswer, error) {
		// Only a cache miss does mining work, so only the winning
		// build is attributed; a cache hit records nothing.
		defer runopt.PhaseLogFrom(ctx).Span(runopt.PhaseRules)()
		rules, err := core.MineRulesContext(ctx, e.model, head, opt)
		if err != nil {
			return ruleAnswer{}, err
		}
		return ruleAnswer{rules: rules, results: e.renderRules(rules)}, nil
	}
	if opt.Run != nil || e.rules.cap <= 0 {
		return mine()
	}
	key := ruleKey{head: head, minSupport: opt.MinSupport, minConfidence: opt.MinConfidence, maxRules: opt.MaxRules}
	return e.rules.get(ctx, key, e.derivedBytes.Add, mine)
}

// renderRules names the rules' attributes for the wire (never nil).
func (e *Engine) renderRules(rules []core.ScoredRule) []RuleResult {
	out := make([]RuleResult, len(rules))
	for i, sr := range rules {
		out[i] = RuleResult{
			Rule:       core.FormatRule(e.model.Table, sr.Rule),
			Support:    sr.Support,
			Confidence: sr.Confidence,
			Lift:       sr.Lift,
		}
	}
	return out
}

// Warmup selects which artifacts to build eagerly.
type Warmup uint8

// Warmup policies; combine with |. WarmupNone (the zero value) keeps
// the Engine fully lazy.
const (
	WarmupIndex Warmup = 1 << iota
	WarmupSimilarity
	WarmupDominator
	WarmupClassifier

	WarmupNone Warmup = 0
	WarmupAll         = WarmupIndex | WarmupSimilarity | WarmupDominator | WarmupClassifier
)

// ParseWarmup maps the CLI vocabulary onto a policy.
func ParseWarmup(s string) (Warmup, error) {
	switch s {
	case "", "none":
		return WarmupNone, nil
	case "all":
		return WarmupAll, nil
	case "graph":
		return WarmupSimilarity | WarmupDominator, nil
	default:
		return 0, fmt.Errorf("engine: unknown warmup policy %q (want none, graph, or all)", s)
	}
}

// Warmup eagerly builds the selected artifacts under ctx, restoring
// the pre-engine "fully prepared at load" behavior when given
// WarmupAll. Classification being unavailable on this model (row-less
// snapshot, no targets) is recorded, not returned: a graph-only model
// warms up fine. The index is skipped on row-less models.
func (e *Engine) Warmup(ctx context.Context, w Warmup) error {
	if w&WarmupIndex != 0 && e.model.Table != nil && e.model.Table.NumRows() > 0 {
		if _, err := e.Index(ctx); err != nil {
			return err
		}
	}
	if w&WarmupSimilarity != 0 {
		if _, err := e.SimilarityGraph(ctx); err != nil {
			return err
		}
	}
	if w&WarmupDominator != 0 {
		if _, err := e.Dominator(ctx, DefaultDomSpec()); err != nil {
			return err
		}
	}
	if w&WarmupClassifier != 0 {
		if _, err := e.classifierSetFor(ctx, DefaultDomSpec()); err != nil {
			return err
		}
	}
	return nil
}

// Stats is a point-in-time engine summary: how many of each artifact
// were built (each memoized artifact builds at most once), the rule
// cache's hit trajectory, and the resident-cost accounting.
type Stats struct {
	IndexBuilds      int64 `json:"index_builds"`
	SimilarityBuilds int64 `json:"similarity_builds"`
	DominatorBuilds  int64 `json:"dominator_builds"`
	ClassifierBuilds int64 `json:"classifier_builds"`
	RuleHits         int64 `json:"rule_hits"`
	RuleMisses       int64 `json:"rule_misses"`
	RuleEvictions    int64 `json:"rule_evictions"`
	RuleEntries      int   `json:"rule_entries"`
	DerivedBytes     int64 `json:"derived_bytes"`
	ResidentCost     int64 `json:"resident_cost"`
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	hits, misses, evictions, entries := e.rules.stats()
	return Stats{
		IndexBuilds:      e.indexBuilds.Load(),
		SimilarityBuilds: e.similarityBuilds.Load(),
		DominatorBuilds:  e.dominatorBuilds.Load(),
		ClassifierBuilds: e.classifierBuilds.Load(),
		RuleHits:         hits,
		RuleMisses:       misses,
		RuleEvictions:    evictions,
		RuleEntries:      entries,
		DerivedBytes:     e.derivedBytes.Load(),
		ResidentCost:     e.ResidentCost(),
	}
}

// costUnitBytes converts derived-artifact bytes into edge-equivalent
// cost units: one resident hyperedge occupies roughly this many bytes
// (tail/head slices, weight, adjacency and key-map entries), so a
// similarity matrix, classifier, or cached rule answer is charged in
// the same currency the registry's resident bound is expressed in.
const costUnitBytes = 64

// ResidentCost reports the model's resident footprint in
// edge-equivalent units: its hyperedge count plus every built derived
// artifact converted at costUnitBytes per unit. The registry bounds
// eviction on this figure, so a model whose lazily built similarity
// graph or rule cache grew after load is charged for it.
func (e *Engine) ResidentCost() int64 {
	return int64(e.model.H.NumEdges()) + (e.derivedBytes.Load()+costUnitBytes-1)/costUnitBytes
}

func (e *Engine) allVertices() []int {
	all := make([]int, e.model.H.NumVertices())
	for i := range all {
		all[i] = i
	}
	return all
}

// Approximate resident footprints of the derived artifacts, in bytes.
// These are deliberate estimates — close enough for eviction to track
// true residency, cheap enough to compute without reflection.

func simFootprint(g *similarity.Graph) int64 {
	n := int64(len(g.Nodes))
	return n*n*8 + n*8 + 48
}

func domFootprint(ans *domAnswer) int64 {
	res := ans.res
	return int64(len(res.Covered)) + int64(len(res.DomSet)+len(ans.targets)+2)*8 + 48 +
		int64(len(ans.domNames)+len(ans.targetNames))*16
}

func indexFootprint(tb *table.Table) int64 {
	words := (int64(tb.NumRows()) + 63) / 64
	postings := int64(tb.NumAttrs()) * int64(tb.K())
	return postings*words*8 + postings*8 + 64
}

// classifierFootprint estimates the prepared ABC: one association
// table per usable hyperedge, K^|tail| rows of (1+K) int32 counters.
func classifierFootprint(set *classifierSet) int64 {
	if set.abc == nil {
		return int64(len(set.targets))*8 + 64
	}
	return set.abc.TableBytes() + 64
}

func ruleFootprint(ans ruleAnswer) int64 {
	var items, text int64
	for i := range ans.rules {
		items += int64(len(ans.rules[i].Rule.X) + len(ans.rules[i].Rule.Y))
	}
	for i := range ans.results {
		text += int64(len(ans.results[i].Rule))
	}
	return 96 + int64(len(ans.rules))*96 + items*16 + int64(len(ans.results))*40 + text
}

// ruleKey identifies one memoized MineRules answer. Run hooks are
// excluded (hook-carrying calls bypass the cache).
type ruleKey struct {
	head          int
	minSupport    float64
	minConfidence float64
	maxRules      int
}

// ruleAnswer is one memoized rules answer: the mined rules and their
// wire rendering, formatted once when the answer is mined.
type ruleAnswer struct {
	rules   []core.ScoredRule
	results []RuleResult
}

type ruleEntry struct {
	flight   *flight[ruleAnswer]
	lastUsed int64
	bytes    int64
	complete bool
}

// ruleCache is the bounded mined-rule LRU with per-key singleflight:
// concurrent queries for the same (head, options) share one mining
// run; completed answers are evicted least-recently-used beyond cap.
type ruleCache struct {
	mu        sync.Mutex
	cap       int
	clock     int64
	entries   map[ruleKey]*ruleEntry
	hits      int64
	misses    int64
	evictions int64
}

func (c *ruleCache) stats() (hits, misses, evictions int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.entries)
}

// get returns the cached answer for key, or builds it via build if
// this caller wins; charge adjusts the owning engine's derived-bytes
// accounting as entries come and go.
func (c *ruleCache) get(ctx context.Context, key ruleKey, charge func(int64) int64, build func() (ruleAnswer, error)) (ruleAnswer, error) {
	for {
		c.mu.Lock()
		c.clock++
		e, ok := c.entries[key]
		if !ok {
			break
		}
		e.lastUsed = c.clock
		c.hits++
		f := e.flight
		c.mu.Unlock()
		select {
		case <-f.done:
			if isCtxErr(f.err) {
				continue // the winner's context died, not ours — retry
			}
			return f.val, f.err
		case <-ctx.Done():
			return ruleAnswer{}, ctx.Err()
		}
	}
	c.misses++
	f := &flight[ruleAnswer]{done: make(chan struct{})}
	e := &ruleEntry{flight: f, lastUsed: c.clock}
	c.entries[key] = e
	c.mu.Unlock()

	f.val, f.err = build()
	c.mu.Lock()
	if f.err != nil {
		// Errors — context or otherwise — are cheap to reproduce and
		// must not occupy a cache slot; drop the entry entirely.
		delete(c.entries, key)
	} else {
		e.complete = true
		e.bytes = ruleFootprint(f.val)
		charge(e.bytes)
		c.evictOverCapLocked(charge)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

func (c *ruleCache) evictOverCapLocked(charge func(int64) int64) {
	for len(c.entries) > c.cap {
		var victim ruleKey
		var ve *ruleEntry
		for k, e := range c.entries {
			if !e.complete {
				continue // never evict an in-flight build
			}
			if ve == nil || e.lastUsed < ve.lastUsed {
				victim, ve = k, e
			}
		}
		if ve == nil {
			return
		}
		delete(c.entries, victim)
		charge(-ve.bytes)
		c.evictions++
	}
}
