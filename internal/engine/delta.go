// Targeted invalidation for incrementally republished models: instead
// of rebuild-everything-on-new-Engine, NewFromPrevious starts the next
// generation's Engine with every memoized artifact whose inputs did
// not change already warm.
//
// What can actually survive an append is dictated by the math, not by
// optimism. Every ACV is an integer sum over the row count, so any
// real append shifts every edge weight (the denominator grew) — and
// the similarity matrix, the dominator (its enhancements divide by
// edge weight), and every cached rule answer are all functions of
// those weights. Carrying any of them would break the engine's
// contract that answers are bit-identical to a fresh engine over a
// full re-mine. The classifier's association tables are different:
// their counts are integer functions of the rows only, so a later
// carry-forward that adds the appended rows' counts to the previous
// tables would be exact. Which tables exist, though, follows the
// dominator and the admitted edges, which an append can move, so the
// classifier is rebuilt; classify.NewABC sizes every table first and
// carves them from slabs, one allocation per artifact. The one
// artifact that does survive is the TID-bitset index: appends extend
// it copy-on-write (table.AppendRows) and the differential tests pin
// extended ≡ rebuilt, so the new engine is primed with it for free. A
// no-op publish (zero rows appended) carries everything.
//
// For the artifacts that must be dropped, RewarmFromPrevious restores
// the previous generation's warmth by eagerly rebuilding exactly the
// set that was warm before — so a hot model stays hot across an
// append, with the rebuild cost paid inside the republish instead of
// by the first unlucky query.
package engine

import (
	"context"
	"errors"

	"hypermine/internal/core"
)

// prime installs v as the memo's completed successful build, as if a
// winner had already built and memoized it.
func (m *memo[T]) prime(v T) {
	f := &flight[T]{done: make(chan struct{}), val: v}
	close(f.done)
	m.mu.Lock()
	m.cur = f
	m.mu.Unlock()
	m.ready.Store(f)
}

// NewFromPrevious returns an Engine for next, carrying forward from
// prev (the engine of the model next was delta-derived from) every
// memoized artifact that is still exactly valid. unchanged reports
// that next is semantically identical to prev's model (a no-op
// append): then all derived artifacts carry over. Otherwise only the
// TID-bitset index survives — see the package comment above — and it
// is primed from the appended table's copy-on-write-extended index.
// The engine options are inherited from prev.
func NewFromPrevious(prev *Engine, next *core.Model, unchanged bool) (*Engine, error) {
	if prev == nil {
		return nil, errors.New("engine: NewFromPrevious requires a previous engine")
	}
	e, err := New(next, prev.opt)
	if err != nil {
		return nil, err
	}
	// The extended index: table.AppendRows seeded it on the new table
	// if the old table's index was built. Priming it counts toward
	// resident cost but not toward indexBuilds — nothing was built.
	if next.Table != nil && next.Table.NumRows() > 0 {
		if ix := next.Table.IndexIfBuilt(); ix != nil {
			e.index.prime(ix)
			e.derivedBytes.Add(indexFootprint(next.Table))
		}
	}
	if !unchanged {
		return e, nil
	}
	// No rows appended: weights, rows, and graph are all identical, so
	// every derived artifact of prev answers exactly for next too.
	if g, gerr, ok := prev.sim.cached(); ok && gerr == nil {
		e.sim.prime(g)
		e.derivedBytes.Add(simFootprint(g))
	}
	prev.mu.Lock()
	domSpecs := make([]DomSpec, 0, len(prev.doms))
	// Spec order is irrelevant here: each spec primes an independent
	// memo and the footprint additions commute.
	//hyperlint:ignore detout
	for spec := range prev.doms {
		domSpecs = append(domSpecs, spec)
	}
	clsSpecs := make([]DomSpec, 0, len(prev.cls))
	//hyperlint:ignore detout
	for spec := range prev.cls {
		clsSpecs = append(clsSpecs, spec)
	}
	prev.mu.Unlock()
	for _, spec := range domSpecs {
		if ans, rerr, ok := prev.domMemo(spec).cached(); ok && rerr == nil {
			e.domMemo(spec).prime(ans)
			e.derivedBytes.Add(domFootprint(ans))
		}
	}
	for _, spec := range clsSpecs {
		if set, serr, ok := prev.clsMemo(spec).cached(); ok && serr == nil {
			e.clsMemo(spec).prime(set)
			e.derivedBytes.Add(classifierFootprint(set))
		}
	}
	return e, nil
}

// RewarmFromPrevious eagerly rebuilds, under ctx, the default-spec
// artifacts that were warm in prev but could not be carried across the
// append, so the republished generation answers its first queries at
// the previous generation's warm latency. Artifacts prev never built
// stay lazy.
func (e *Engine) RewarmFromPrevious(ctx context.Context, prev *Engine) error {
	var w Warmup
	if _, _, ok := prev.index.cached(); ok {
		w |= WarmupIndex
	}
	if _, _, ok := prev.sim.cached(); ok {
		w |= WarmupSimilarity
	}
	if _, _, ok := prev.defaultDom.cached(); ok {
		w |= WarmupDominator
	}
	if _, _, ok := prev.defaultCls.cached(); ok {
		w |= WarmupClassifier
	}
	return e.Warmup(ctx, w)
}
