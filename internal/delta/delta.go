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
// append, with no rescans of old rows. Re-deriving the model from the
// updated counts reproduces the exact integer sums of
// core.BuildContext on the concatenated table, hence the exact float64
// ACVs, the exact gamma-significance admissions, and the exact edge
// order. The differential tests in this package pin that equivalence,
// bit for bit, across randomized append schedules.
//
// Counts are seeded once per Dataset from the table's TID-bitset index
// (the PR-1 bitmap kernels: one PopcountAnd per joint cell), and the
// index itself is extended copy-on-write per append (see
// table.AppendRows), so no stage of the pipeline rescans old rows.
//
// A MaxTailSize=3 configuration would need 4-way joint counts to
// delta-update stage 3; instead the Dataset maintains counts through
// stage 2 and finishes with core.BuildTriplesContext — the very
// function a full build runs — on the concatenated table, keeping
// bit-for-bit equivalence at the cost of one stage-3 pass.
//
// # Structural sharing and fallback
//
// The emitted *core.Model is immutable and is assembled by the
// builder's own step, core.AssembleGraph: it counts exact degrees and
// sizes the graph's edge list, key index and incidence lists once
// (hypergraph.Reserve), so nothing grows edge by edge. Edges that also
// existed in the previous model share its vertex-id slices
// (hypergraph.AddEdgeShared); only genuinely new edges copy theirs,
// two small allocations each, so no id slab is pinned across
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
	"hypermine/internal/runopt"
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
	if d.cfg.MaxTailSize == 0 {
		d.cfg.MaxTailSize = 2
	}
	if d.cfg.GammaTriple == 0 {
		d.cfg.GammaTriple = d.cfg.GammaPair
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
	nt, err := d.model.Table.AppendRows(rows)
	if err != nil {
		return nil, Changes{}, err
	}
	return d.applyLocked(ctx, nt, rows)
}

// AppendRawContext is AppendRowsContext for column-major raw bytes
// (cols[j] holds appended values of attribute j), the wire format of
// the `:append` endpoint.
func (d *Dataset) AppendRawContext(ctx context.Context, cols [][]byte) (*core.Model, Changes, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nt, err := d.model.Table.AppendRaw(cols)
	if err != nil {
		return nil, Changes{}, err
	}
	added := nt.NumRows() - d.model.Table.NumRows()
	rows := make([][]table.Value, added)
	base := d.model.Table.NumRows()
	for i := range rows {
		if err := ctx.Err(); err != nil {
			return nil, Changes{}, err
		}
		rows[i] = nt.Row(base+i, nil)
	}
	return d.applyLocked(ctx, nt, rows)
}

// applyLocked publishes nt (the old table plus rows) as the new model.
// Caller holds d.mu; nt was produced by an Append on d.model.Table.
func (d *Dataset) applyLocked(ctx context.Context, nt *table.Table, rows [][]table.Value) (*core.Model, Changes, error) {
	old := d.model
	if len(rows) == 0 {
		// A no-op append changes no count and no ACV: the previous
		// model is already the model of the concatenated table.
		return old, Changes{EdgesBefore: old.H.NumEdges(), EdgesAfter: old.H.NumEdges()}, nil
	}
	ch := Changes{Appended: len(rows), EdgesBefore: old.H.NumEdges()}
	var m *core.Model
	if d.counts != nil {
		if err := d.counts.add(ctx, rows); err != nil {
			return nil, Changes{}, err
		}
		var err error
		m, err = d.derive(ctx, nt, &ch)
		if err != nil {
			// Roll the counts back so the dataset still matches
			// d.model exactly; a canceled apply must leave no trace.
			d.counts.sub(rows)
			return nil, Changes{}, err
		}
	} else {
		ch.FullRebuild = true
		cfg := d.cfg
		var err error
		m, err = core.BuildContext(ctx, nt, cfg)
		if err != nil {
			return nil, Changes{}, err
		}
	}
	ch.EdgesAfter = m.H.NumEdges()
	d.model = m
	return m, ch, nil
}

// derive re-runs the admission pipeline of core.BuildContext against
// the maintained joint counts: identical integer sums, identical
// float64 ACVs, identical admissions, identical edge order — with no
// scan of any row. Stage 3 (MaxTailSize=3) delegates to
// core.BuildTriplesContext on the concatenated table.
func (d *Dataset) derive(ctx context.Context, nt *table.Table, ch *Changes) (*core.Model, error) {
	jc := d.counts
	cfg := d.cfg
	n, k := jc.n, jc.k
	model := &core.Model{Table: nt, Config: d.model.Config, EdgeACV: make([]float64, n*n)}

	// Stage 1: directed edges. Baseline ACV(∅,{c}) is the max value
	// count over the rows; admissions mirror BuildContext's head-major
	// parallel stage, and edges land in the same (a, c) order.
	chk := runopt.NewChecker(ctx, cfg.Run.Stride(), core.DefaultCheckEvery)
	prog := runopt.NewMeter(runopt.PhaseEdges, n, cfg.Run.Func())
	null := make([]float64, n)
	for c := 0; c < n; c++ {
		best := int32(0)
		for v := 0; v < k; v++ {
			if x := jc.val[c*k+v]; x > best {
				best = x
			}
		}
		null[c] = float64(best) / float64(jc.rows)
	}
	edgeAdmit := make([]bool, n*n)
	for c := 0; c < n; c++ {
		for a := 0; a < n; a++ {
			if a == c {
				continue
			}
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			acv := jc.edgeACV(a, c)
			model.EdgeACV[a*n+c] = acv
			if acv >= cfg.GammaEdge*null[c] {
				edgeAdmit[a*n+c] = true
			}
		}
		prog.Tick(1)
	}
	var (
		admitted []core.TailPair
		triples  []core.TailTriple
		err      error
	)
	if cfg.MaxTailSize >= 2 {
		admitted, err = d.derivePairs(chk, model.EdgeACV, edgeAdmit)
	}
	if err == nil && cfg.MaxTailSize >= 3 {
		// Stage 3 runs the full builder's own triple stage on the
		// concatenated table — same function, same inputs, same result.
		triples, err = core.BuildTriplesContext(ctx, nt, admitted, cfg)
	}
	if err != nil {
		return nil, err
	}
	// The builder's own assembly step inserts the edges, sharing the
	// id slices of every edge the previous model also holds.
	if ch.SharedEdges, err = core.AssembleGraph(model, edgeAdmit, admitted, triples, d.model.H); err != nil {
		return nil, err
	}
	return model, nil
}

// derivePairs is stage 2 of derive: the 2-to-1 hyperedges admitted by
// the triple counts. The serial a<b, c loops produce them already in
// BuildContext's post-sort (a, b, c) order.
func (d *Dataset) derivePairs(chk *runopt.Checker, edgeACV []float64, edgeAdmit []bool) ([]core.TailPair, error) {
	jc, cfg := d.counts, d.cfg
	n := jc.n
	prog2 := runopt.NewMeter(runopt.PhasePairs, n*(n-1)/2, cfg.Run.Func())
	var admitted []core.TailPair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := 0; c < n; c++ {
				if c == a || c == b {
					continue
				}
				if cfg.Candidates == core.EdgeSeeded && !edgeAdmit[a*n+c] && !edgeAdmit[b*n+c] {
					continue
				}
				if err := chk.Tick(); err != nil {
					return nil, err
				}
				base := edgeACV[a*n+c]
				if x := edgeACV[b*n+c]; x > base {
					base = x
				}
				acv := jc.pairACV(a, b, c)
				if acv >= cfg.GammaPair*base {
					admitted = append(admitted, core.TailPair{A: a, B: b, C: c, ACV: acv})
				}
			}
			prog2.Tick(1)
		}
	}
	return admitted, nil
}
