// Package delta is the incremental mining subsystem: it turns a mined
// (Table, Model) pair into a live dataset that accepts appended
// observations and republishes an updated model without a full
// re-mine.
//
// # How it stays bit-identical to a full re-mine
//
// Every ACV the builder computes is an integer sum divided by the row
// count: ACV(T, {C}) = (Σ over tail cells of the max head-value joint
// count) / rows. The integer numerators are exactly maintainable under
// appends, so a Dataset keeps persistent joint-count tables —
// per-attribute value counts, unordered-pair counts (k² cells per
// attribute pair), and unordered-triple counts (k³ cells per attribute
// triple) — and updates them in O(appended · n³) increment time per
// append, with no rescans of old rows.
//
// An append does not re-run admissions itself. It hands the counts to
// the builder's own stage driver, core.MineStages, as the core.Scorer
// its workers count ACVs with: the baseline from the value counts,
// ACV({a},{c}) from the pair counts, and the three 2-to-1 ACVs of each
// attribute triple from its triple counts. The driver applies the same gamma-significance rule,
// candidate filter and edge order as core.BuildContext, here on
// GOMAXPROCS workers, and the counts yield the same integer sums,
// hence the same float64 ACVs. The differential tests in this package pin
// that equivalence, bit for bit, across randomized append schedules,
// and check every published model against an admission oracle that
// shares no code with the driver.
//
// Counts are seeded once per Dataset from the table's TID-bitset index
// with the builder's own kernels on GOMAXPROCS workers
// (core.CountPairCells and core.PairCells.CountTriples: only the cells
// whose values are all below k are popcounted, the rest derived from
// the marginals), and the index itself is extended copy-on-write per
// append (see table.AppendRows), so neither seeding nor stages 1 and 2
// rescan old rows.
//
// A MaxTailSize=3 configuration would need 4-way joint counts to
// score 3-to-1 candidates; the driver's stage 3 instead counts them on
// the concatenated table with the builder's scalar kernel, as a full
// build does, at the cost of one stage-3 pass over the rows. Their
// constituent 2-to-1 ACVs come from stage 2, hence from the counts.
//
// # Structural sharing and fallback
//
// The emitted *core.Model is immutable and is assembled by the
// builder's own last step inside core.MineStages: it counts exact
// degrees and sizes the graph's edge list, key index and incidence
// lists once (hypergraph.Reserve), so nothing grows edge by edge.
// Edges that also existed in the previous model share its vertex-id
// slices (hypergraph.AddEdgeShared); only genuinely new edges copy
// theirs, two small allocations each, so no id slab is pinned across
// generations. Weights are stored by value, so shared slices are safe
// even though every ACV shifts when the denominator grows.
//
// If the joint-count tables would exceed Options.MaxCountBytes (large
// n·k), the Dataset degrades to a documented fallback: each append
// runs a full core.BuildContext on the concatenated table — still
// reusing the incrementally extended TID index — so correctness is
// unchanged and only the republish latency loses its incremental
// advantage.
package delta

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// DefaultMaxCountBytes bounds the joint-count tables at 256 MiB unless
// Options overrides it; past the bound the Dataset falls back to full
// re-mines per append.
const DefaultMaxCountBytes = 256 << 20

// Options tunes a Dataset.
type Options struct {
	// MaxCountBytes caps the persistent joint-count memory; 0 means
	// DefaultMaxCountBytes, negative means "no counts" (always fall
	// back to a full re-mine — used by tests to pin the fallback
	// path).
	MaxCountBytes int64
}

// Changes describes how one append moved the model, for the engine's
// targeted invalidation and for operator logs.
type Changes struct {
	// Appended is the number of observations this apply added. Zero
	// means the model is unchanged (Model returns the previous value).
	Appended int
	// EdgesBefore and EdgesAfter count hyperedges in the previous and
	// new model.
	EdgesBefore, EdgesAfter int
	// SharedEdges counts edges of the new model whose vertex-id slices
	// are structurally shared with the previous model.
	SharedEdges int
	// FullRebuild reports that this apply ran the full-re-mine
	// fallback instead of the count-maintained derivation.
	FullRebuild bool
}

// Unchanged reports whether the append was a no-op (zero rows), in
// which case every engine artifact of the previous generation remains
// exactly valid.
func (c Changes) Unchanged() bool { return c.Appended == 0 }

// Dataset is a live dataset: the latest published model plus the
// persistent joint counts that make the next append cheap. Methods are
// safe for concurrent use; appends serialize internally.
type Dataset struct {
	mu     sync.Mutex
	model  *core.Model
	cfg    core.Config
	opts   Options
	counts *jointCounts // nil = fallback mode (full re-mine per apply)
}

// New wraps an existing mined model into a live dataset, seeding the
// joint-count tables from the table's TID-bitset index (or arming the
// full-rebuild fallback if they would exceed the memory bound). The
// model must carry its training rows.
func New(m *core.Model, opts Options) (*Dataset, error) {
	return NewContext(context.Background(), m, opts)
}

// NewContext is New under a context; seeding polls ctx between joint
// cells and returns ctx.Err() promptly on cancellation.
func NewContext(ctx context.Context, m *core.Model, opts Options) (*Dataset, error) {
	if m == nil || m.H == nil {
		return nil, errors.New("delta: nil model")
	}
	if err := m.RequireRows(); err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	d := &Dataset{model: m, cfg: m.Config, opts: opts}
	// Re-mines run on this host's workers, not on the worker count a
	// decoded snapshot carries; published models keep that value.
	d.cfg.Parallelism = 0
	// The count tables are sized by the tail size the stage driver
	// will default to; it fills in the other defaults itself.
	if d.cfg.MaxTailSize == 0 {
		d.cfg.MaxTailSize = 2
	}
	max := opts.MaxCountBytes
	if max == 0 {
		max = DefaultMaxCountBytes
	}
	tb := m.Table
	if max > 0 && countBytes(tb.NumAttrs(), tb.K(), d.cfg.MaxTailSize) <= max {
		jc, err := seedCounts(ctx, tb, d.cfg.MaxTailSize)
		if err != nil {
			return nil, err
		}
		d.counts = jc
	}
	return d, nil
}

// Model returns the latest model this dataset has published.
func (d *Dataset) Model() *core.Model {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.model
}

// CountBytes returns the resident size of the joint-count tables, or 0
// in fallback mode.
func (d *Dataset) CountBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.counts == nil {
		return 0
	}
	return countBytes(d.counts.n, d.counts.k, d.cfg.MaxTailSize)
}

// AppendRowsContext appends observations (row-major, one value per
// attribute in 1..K), delta-updates the joint counts and the TID
// index, and re-derives the model. It returns the new immutable model;
// the previous model and its table are untouched and keep serving. On
// any error — validation, cancellation — the dataset is unchanged.
func (d *Dataset) AppendRowsContext(ctx context.Context, rows [][]table.Value) (*core.Model, Changes, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.model
	if len(rows) == 0 {
		// A no-op append changes no count and no ACV: the previous
		// model is already the model of the concatenated table.
		return old, Changes{EdgesBefore: old.H.NumEdges(), EdgesAfter: old.H.NumEdges()}, nil
	}
	nt, err := old.Table.AppendRows(rows)
	if err != nil {
		return nil, Changes{}, err
	}
	ch := Changes{Appended: len(rows), EdgesBefore: old.H.NumEdges()}
	var m *core.Model
	if d.counts != nil {
		if err = d.counts.add(ctx, rows); err != nil {
			return nil, Changes{}, err
		}
		// The builder's own stage driver admits from the counts, which
		// every worker reads as its Scorer, and shares the id slices
		// of every edge the old model also holds.
		scorer := func() core.Scorer { return d.counts }
		m, ch.SharedEdges, err = core.MineStages(ctx, nt, d.cfg, scorer, old.H)
		if err != nil {
			// Roll the counts back so the dataset still matches
			// d.model exactly; a canceled apply must leave no trace.
			d.counts.sub(rows)
			return nil, Changes{}, err
		}
	} else {
		ch.FullRebuild = true
		if m, err = core.BuildContext(ctx, nt, d.cfg); err != nil {
			return nil, Changes{}, err
		}
	}
	m.Config.Parallelism = old.Config.Parallelism
	ch.EdgesAfter = m.H.NumEdges()
	d.model = m
	return m, ch, nil
}
