// Package runopt holds the shared vocabulary of the context-aware v2
// API: the named pipeline phases, the progress-callback type, and two
// small helpers — Checker (bounded-stride context polling) and Meter
// (concurrency-safe progress reporting) — used by every long-running
// operation in internal/core, cover, similarity, apriori, classify,
// and registry. It exists so those packages agree on one progress
// contract without importing each other.
package runopt

import (
	"context"
	"sync/atomic"
)

// Phase names one stage of the mining/query pipeline, as reported to
// progress callbacks and as the engine names its trace spans. The work
// unit behind (done, total) is phase-specific and documented on each
// constant.
type Phase string

const (
	// PhaseEdges is Build stage 1 (directed edges); unit = one head
	// attribute fully scored against all tails.
	PhaseEdges Phase = "edges"
	// PhasePairs is Build stage 2 (2-to-1 hyperedges); unit = one tail
	// pair scored against all heads.
	PhasePairs Phase = "pairs"
	// PhaseTriples is Build stage 3 (3-to-1 hyperedges); unit = one
	// candidate tail-triple group.
	PhaseTriples Phase = "triples"
	// PhaseSimilarity is similarity-graph construction; unit = one
	// matrix row stripe.
	PhaseSimilarity Phase = "similarity"
	// PhaseDominator is greedy dominator mining; done counts covered
	// target vertices, total is |S|.
	PhaseDominator Phase = "dominator"
	// PhaseApriori is level-wise frequent-itemset mining; done is the
	// completed itemset size, total is Options.MaxLen (0 = unbounded).
	PhaseApriori Phase = "apriori"
	// PhaseRules is model rule mining; unit = one hyperedge into the
	// head attribute.
	PhaseRules Phase = "rules"
	// PhaseFolds is cross-validation; unit = one completed fold.
	PhaseFolds Phase = "folds"
	// PhaseIndex is TID-bitset index construction (an engine lazy
	// artifact; no incremental progress units).
	PhaseIndex Phase = "index"
	// PhaseClassifier is prepared-classifier construction (association
	// tables + predictor pool; no incremental progress units).
	PhaseClassifier Phase = "classifier"
)

// ProgressFunc observes completed work units of one phase. done is
// cumulative; total is 0 when the amount of work is not known up
// front. During parallel stages the callback may be invoked
// concurrently from several worker goroutines, so implementations must
// be safe for concurrent use (or the caller must run with one worker).
type ProgressFunc func(phase Phase, done, total int)

// Hooks carries the runtime-only observation knobs of a context-aware
// call: the progress callback and the cancellation-poll stride. It is
// attached to v1 option structs (core.Config, cover.Options,
// apriori.Options, core.MineOptions) as a *pointer* field so those
// structs stay comparable with == and JSON-serializable exactly as
// before. A nil *Hooks means "no progress, default stride".
type Hooks struct {
	// Progress observes completed work units; see ProgressFunc.
	Progress ProgressFunc
	// CheckEvery bounds work units between context polls; 0 means the
	// operation's documented default stride.
	CheckEvery int
}

// Func returns the progress callback, nil-safe.
func (h *Hooks) Func() ProgressFunc {
	if h == nil {
		return nil
	}
	return h.Progress
}

// Stride returns the configured CheckEvery, nil-safe (0 when unset).
func (h *Hooks) Stride() int {
	if h == nil {
		return 0
	}
	return h.CheckEvery
}

// Checker polls a context's cancellation at a bounded stride of work
// units, so hot loops pay one integer increment per unit and one
// ctx.Err() call per stride. It is single-goroutine state: parallel
// stages give each worker its own Checker. The observed error is
// sticky — once non-nil, every later Tick/Err returns it without
// polling again.
type Checker struct {
	ctx   context.Context
	every int
	n     int
	err   error
}

// NewChecker returns a Checker polling ctx every `every` work units;
// every <= 0 falls back to defaultEvery (and to 1 if that is also
// unset). The defaultEvery is the package-specific documented stride.
func NewChecker(ctx context.Context, every, defaultEvery int) *Checker {
	if every <= 0 {
		every = defaultEvery
	}
	if every <= 0 {
		every = 1
	}
	return &Checker{ctx: ctx, every: every}
}

// Tick records one completed work unit and polls the context when the
// stride elapses. Cancellation latency is therefore bounded by
// (stride x cost of one unit).
func (c *Checker) Tick() error {
	if c.err != nil {
		return c.err
	}
	if c.n++; c.n >= c.every {
		c.n = 0
		c.err = c.ctx.Err()
	}
	return c.err
}

// Err polls the context immediately (once per call until canceled),
// for natural between-stage checkpoints.
func (c *Checker) Err() error {
	if c.err == nil {
		c.err = c.ctx.Err()
	}
	return c.err
}

// Meter reports cumulative progress for one phase. Tick is safe to
// call from concurrent workers; a nil Meter or a Meter without a
// callback is a no-op, so call sites need no guards.
type Meter struct {
	phase Phase
	total int
	fn    ProgressFunc
	done  atomic.Int64
}

// NewMeter returns a Meter for the phase, or nil when fn is nil.
func NewMeter(phase Phase, total int, fn ProgressFunc) *Meter {
	if fn == nil {
		return nil
	}
	return &Meter{phase: phase, total: total, fn: fn}
}

// Tick adds n completed units and invokes the callback with the new
// cumulative count.
func (m *Meter) Tick(n int) {
	if m == nil {
		return
	}
	m.fn(m.phase, int(m.done.Add(int64(n))), m.total)
}
