// Incremental append: the registry face of internal/delta. An append
// delta-updates the named model's live dataset and publishes the
// result as a new generation under the same retire-and-drain swap a
// Load uses, so queries in flight on the old generation finish on the
// old generation and every response is attributable to exactly one
// generation (surfaced as the X-Model-Generation header by the
// server).
package registry

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/engine"
	"hypermine/internal/table"
)

// ErrNotFound reports an append against a name the registry does not
// serve.
var ErrNotFound = errors.New("registry: model not found")

// ErrConflict reports an append that lost an admin race: the model was
// reloaded or removed while the delta was being prepared. The append
// is not published; the caller may retry against the new generation.
var ErrConflict = errors.New("registry: model changed during append")

// AppendInfo reports the outcome of an append.
type AppendInfo struct {
	Name string
	// Generation serves the appended data: a fresh generation for a
	// real append, the current one for a no-op.
	Generation int64
	// Appended counts the observations added; Rows and Edges describe
	// the serving model afterwards.
	Appended int
	Rows     int
	Edges    int
	// Swapped reports that a new generation was published (false for
	// no-op appends).
	Swapped bool
	// SharedEdges and FullRebuild surface delta.Changes for logs.
	SharedEdges int
	FullRebuild bool
	// Evicted lists models the resident-cost bound pushed out.
	Evicted []string
}

// AppendRows appends row-major observations to the named model; see
// AppendRowsContext.
func (r *Registry) AppendRows(name string, rows [][]table.Value) (*AppendInfo, error) {
	return r.AppendRowsContext(context.Background(), name, rows)
}

// AppendRowsContext appends observations to the named model's live
// dataset, delta-updates the model, and publishes it as a new
// generation. Appends on one name serialize; queries never block — the
// old generation keeps serving until the swap, then drains. On any
// error nothing is published and the serving model is unchanged.
func (r *Registry) AppendRowsContext(ctx context.Context, name string, rows [][]table.Value) (*AppendInfo, error) {
	return r.appendContext(ctx, name, func(ds *delta.Dataset) (*core.Model, delta.Changes, error) {
		return ds.AppendRowsContext(ctx, rows)
	})
}

// AppendRawContext is AppendRowsContext for column-major raw bytes
// (cols[j] holds the appended values of attribute j, one byte per
// cell).
func (r *Registry) AppendRawContext(ctx context.Context, name string, cols [][]byte) (*AppendInfo, error) {
	return r.appendContext(ctx, name, func(ds *delta.Dataset) (*core.Model, delta.Changes, error) {
		return ds.AppendRawContext(ctx, cols)
	})
}

func (r *Registry) appendContext(ctx context.Context, name string, apply func(*delta.Dataset) (*core.Model, delta.Changes, error)) (*AppendInfo, error) {
	if name == "" {
		return nil, errors.New("registry: empty model name")
	}
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}

	// Serialize appends per name. The dataset's joint counts advance
	// monotonically with the published models, so two appends must not
	// interleave; queries and other models are unaffected.
	e.appendMu.Lock()
	defer e.appendMu.Unlock()

	s := e.cur.Load()
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	start := time.Now()
	ds := e.ds.Load()
	if ds == nil || ds.Model() != s.Model() {
		// First append on this name, or the model was hot-swapped by a
		// Load since: (re)seed the live dataset from the serving model.
		var err error
		if ds, err = delta.NewContext(ctx, s.Model(), delta.Options{}); err != nil {
			return nil, err
		}
		// Keep it only while s is still published: a Load that swapped
		// s out has already cleared ds and must not find it refilled.
		r.mu.RLock()
		if e.cur.Load() == s {
			e.ds.Store(ds)
		}
		r.mu.RUnlock()
	}
	m, ch, err := apply(ds)
	if err != nil {
		return nil, err
	}
	info := &AppendInfo{
		Name:        name,
		Appended:    ch.Appended,
		SharedEdges: ch.SharedEdges,
		FullRebuild: ch.FullRebuild,
	}
	if ch.Unchanged() {
		// Nothing changed: the serving generation already answers for
		// the (identical) concatenated table.
		info.Generation = s.gen
		info.Rows = m.Table.NumRows()
		info.Edges = m.H.NumEdges()
		return info, nil
	}

	// Prepare the next generation outside all registry locks: carry
	// the extended TID index, then restore the old engine's warmth so
	// republish cost — not first-query latency — absorbs the rebuilds.
	eng, err := engine.NewFromPrevious(s.Engine(), m, false)
	if err != nil {
		return nil, err
	}
	if err := eng.RewarmFromPrevious(ctx, s.Engine()); err != nil {
		return nil, err
	}
	if err := eng.Warmup(ctx, r.opt.Warmup); err != nil {
		return nil, err
	}
	next := &Served{
		name:     name,
		gen:      r.gen.Add(1),
		eng:      eng,
		loadedAt: time.Now(),
	}

	r.mu.Lock()
	if r.entries[name] != e || e.cur.Load() != s {
		// A Load or Remove won the race while the delta was prepared;
		// publishing now would serve stale data over the newer admin
		// action. The dataset has advanced past the published model, so
		// the next append reseeds.
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConflict, name)
	}
	e.cur.Store(next)
	e.lastUsed.Store(r.clock.Add(1))
	evictedNames, drains := r.evictOverBoundLocked(name)
	r.mu.Unlock()

	r.swaps.Add(1)
	drain(s)
	//hyperlint:ignore ctxpoll
	for _, d := range drains {
		drain(d)
	}
	r.notifyEvicted(evictedNames, drains)
	for _, victim := range evictedNames {
		r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, "model evicted",
			slog.String("model", victim), slog.String("by", name))
	}
	info.Generation = next.gen
	info.Rows = m.Table.NumRows()
	info.Edges = m.H.NumEdges()
	info.Swapped = true
	info.Evicted = evictedNames
	r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, "model appended",
		slog.String("model", name),
		slog.Int64("generation", next.gen),
		slog.Int("appended", ch.Appended),
		slog.Int("rows", info.Rows),
		slog.Int("edges", info.Edges),
		slog.Int("shared_edges", ch.SharedEdges),
		slog.Bool("full_rebuild", ch.FullRebuild),
		slog.Duration("duration", time.Since(start)))
	return info, nil
}
