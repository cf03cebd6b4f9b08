// Targeted invalidation for incrementally republished models: instead
// of rebuild-everything-on-new-Engine, NewFromPrevious starts the next
// generation's Engine with every memoized artifact whose inputs did
// not change already warm.
//
// What can actually survive an append is dictated by the math, not by
// optimism. Every ACV is an integer sum over the row count, so any
// real append shifts every edge weight (the denominator grew) — and
// the similarity matrix and every cached rule answer are functions of
// those weights. Carrying either would break the engine's contract
// that answers are bit-identical to a fresh engine over a full
// re-mine. The dominator is rebuilt for a different reason: only
// Algorithm 5 (DominatorGreedyDS) divides by edge weight, while the
// default Algorithm 6 (DominatorSetCover) reads only the admitted
// (tail, head) set, and an append can admit or drop edges. The
// classifier's association tables are different:
// their counts are integer functions of the rows only, so a later
// carry-forward that adds the appended rows' counts to the previous
// tables would be exact. Which tables exist, though, follows the
// dominator and the admitted edges, which an append can move, so the
// classifier is rebuilt; classify.NewABC sizes every table first and
// carves them from slabs, one allocation per artifact. The one
// artifact that does survive is the TID-bitset index: appends extend
// it copy-on-write (table.AppendRows) and the differential tests pin
// extended ≡ rebuilt, so the new engine is primed with it for free.
//
// For the artifacts that must be dropped, NewFromPrevious restores the
// previous generation's warmth by eagerly rebuilding exactly the set
// that was warm before, plus the caller's warmup policy — so a hot
// model stays hot across an append, with the rebuild cost paid inside
// the republish instead of by the first unlucky query.
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

// NewFromPrevious returns an Engine for next, the model delta-derived
// from prev's. It inherits prev's options and starts with the
// TID-bitset index primed from the appended table's copy-on-write
// extended index (see the package comment above). It then builds,
// under ctx, the default-spec artifacts that were warm in prev plus
// those w selects, so the new generation answers its first queries at
// the previous generation's warm latency; artifacts in neither set stay
// lazy.
func NewFromPrevious(ctx context.Context, prev *Engine, next *core.Model, w Warmup) (*Engine, error) {
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
	if err := e.Warmup(ctx, w); err != nil {
		return nil, err
	}
	return e, nil
}
