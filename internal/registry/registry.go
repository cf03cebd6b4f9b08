// Package registry implements the serving-side model registry of the
// hypermined daemon: a set of named, immutable served models with
// lock-free reads, atomic hot swap, and LRU eviction bounded by
// resident cost.
//
// Since the engine redesign, a Served is a thin lifecycle wrapper
// around an engine.Engine: the registry contributes naming, hot swap,
// refcounting, and eviction, while every derived artifact (dominator,
// classifier + predictor pool, similarity graph, rule cache) lives in
// the Engine and is built lazily on first use — loading a model that
// will only ever answer rules queries no longer pays for the
// similarity graph and classifier. The pre-engine "fully prepared at
// load" behavior is available as an opt-in warmup policy
// (Options.Warmup, engine.WarmupAll).
//
// Concurrency model. Every name maps to an entry holding an
// atomic.Pointer[Served]. Readers Acquire (pointer load + refcount
// increment, no locks), query the immutable Served, and Release.
// Admin operations (Load, Remove) take the registry mutex, publish a
// new Served with a single pointer store, then drain the old one:
// mark it retired and wait for in-flight readers to finish. Because a
// Served's engine memoizes immutable artifacts, a reader that raced a
// swap can safely finish its query on the retired model; Acquire
// never returns a retired model, so the drain terminates.
package registry

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hypermine/internal/classify"
	"hypermine/internal/core"
	"hypermine/internal/cover"
	"hypermine/internal/delta"
	"hypermine/internal/engine"
	"hypermine/internal/similarity"
)

// Options tunes a Registry.
type Options struct {
	// MaxResidentEdges bounds the total resident cost of loaded
	// models, in edge-equivalent units: each model is charged its
	// hyperedge count plus the converted size of every derived
	// artifact its engine has built (similarity matrix, classifier,
	// rule cache — see engine.Engine.ResidentCost). 0 means unlimited.
	// When a Load pushes the total over the bound, least-recently-used
	// models are evicted (never the one being loaded) until the total
	// fits or nothing else remains.
	MaxResidentEdges int
	// Warmup selects which derived artifacts Load builds eagerly
	// before publishing. The zero value keeps models fully lazy;
	// engine.WarmupAll restores the pre-engine prepare-everything
	// behavior for latency-critical serving.
	Warmup engine.Warmup
	// LoadHook, when set, observes the outcome of every load attempt:
	// err is nil on a successful publish and the preparation error
	// otherwise. Context cancellation is not reported — an aborted
	// upload says nothing about the model itself. The hook runs outside
	// registry locks; the serving layer uses it to feed per-model
	// circuit breakers (a model that cannot even load should trip open,
	// a fresh successful load deserves a clean slate).
	LoadHook func(name string, err error)
	// Logger, when set, receives structured lifecycle events (model
	// loaded / swapped / evicted / removed, failed loads). Nil discards.
	Logger *slog.Logger
}

// Served is one immutable serving model: an engine.Engine plus the
// registry's lifecycle state (name, generation, refcount, retirement).
// Derived-artifact accessors delegate to the engine and build lazily;
// they are safe from any number of goroutines.
type Served struct {
	name     string
	gen      int64 // registry-wide load generation, for observability
	eng      *engine.Engine
	loadedAt time.Time
	refs     atomic.Int64
	retired  atomic.Bool
	queries  atomic.Int64
}

// Name returns the registry name the model is served under.
func (s *Served) Name() string { return s.name }

// Generation returns the registry-wide load generation of this model
// (monotonically increasing across Loads; a reload bumps it).
func (s *Served) Generation() int64 { return s.gen }

// Engine returns the prepared-model query engine. All query traffic
// should go through it (Engine.Do or the typed methods).
func (s *Served) Engine() *engine.Engine { return s.eng }

// Model returns the underlying immutable model.
func (s *Served) Model() *core.Model { return s.eng.Model() }

// LoadedAt returns when the model was published.
func (s *Served) LoadedAt() time.Time { return s.loadedAt }

// Dominator returns the serving dominator result, building it on
// first use; nil only if the build failed.
func (s *Served) Dominator() *cover.Result {
	res, err := s.eng.Dominator(context.Background(), engine.DefaultDomSpec())
	if err != nil {
		return nil
	}
	return res
}

// Targets returns the classifiable target attributes (covered by the
// dominator, not inside it), in ascending order; nil if derivation
// failed.
func (s *Served) Targets() []int {
	targets, err := s.eng.Targets(context.Background())
	if err != nil {
		return nil
	}
	return targets
}

// Classifier returns the prepared ABC, building it on first use, or
// an error explaining why classification is unavailable on this model
// (row-less snapshot, or a dominator covering no targets).
func (s *Served) Classifier() (*classify.ABC, error) {
	return s.eng.Classifier(context.Background())
}

// SimilarityGraph returns the all-vertices similarity graph, building
// it on first use; nil only if the build failed.
func (s *Served) SimilarityGraph() *similarity.Graph {
	g, err := s.eng.SimilarityGraph(context.Background())
	if err != nil {
		return nil
	}
	return g
}

// Queries returns how many queries have been counted on this model.
func (s *Served) Queries() int64 { return s.queries.Load() }

// CountQuery increments the model's query counter.
func (s *Served) CountQuery() { s.queries.Add(1) }

// BorrowPredictor takes a scratch-reusing predictor from the engine's
// pool; pair with ReturnPredictor. The steady-state borrow performs no
// heap allocation once the pool is warm.
//
//hyper:noalloc
func (s *Served) BorrowPredictor() (*classify.Predictor, error) {
	return s.eng.BorrowPredictor(context.Background())
}

// ReturnPredictor puts a borrowed predictor back in the pool.
func (s *Served) ReturnPredictor(p *classify.Predictor) {
	s.eng.ReturnPredictor(context.Background(), p)
}

// Release ends an Acquire. The Served must not be used afterwards.
//
//hyper:noalloc
func (s *Served) Release() { s.refs.Add(-1) }

type entry struct {
	cur      atomic.Pointer[Served]
	lastUsed atomic.Int64

	// appendMu serializes appends on this name. ds is the live-dataset
	// state behind AppendContext: only an append holding appendMu
	// advances it, and it is stored only while r.mu shows the model it
	// extends still published. A Load clears ds under r.mu without
	// waiting for appendMu, so a replaced model's rows, index and joint
	// counts are released at once; an append in flight then fails its
	// publish with ErrConflict, and the next append reseeds.
	appendMu sync.Mutex
	ds       atomic.Pointer[delta.Dataset]
}

// Registry is the named model registry. The zero value is not usable;
// construct with New.
type Registry struct {
	opt     Options
	mu      sync.RWMutex // guards entries map shape; admin ops take it exclusively
	entries map[string]*entry
	clock   atomic.Int64 // logical LRU clock, bumped on every Acquire
	gen     atomic.Int64 // load generation counter
	swaps   atomic.Int64
	evicted atomic.Int64

	// evictHook (set via OnEvict) observes LRU evictions with the
	// evicted model's generation; it runs outside registry locks.
	evictHook atomic.Pointer[func(name string, gen int64)]
}

// OnEvict registers fn to be called with the name and generation of
// every model the resident-cost bound evicts. The fleet layer uses it
// to stop gossip from re-pulling a model the LRU just dropped (which
// would thrash the bound forever). fn runs outside registry locks and
// must not block; a nil fn clears the hook.
func (r *Registry) OnEvict(fn func(name string, gen int64)) {
	if fn == nil {
		r.evictHook.Store(nil)
		return
	}
	r.evictHook.Store(&fn)
}

// notifyEvicted fans one load's evictions out to the eviction hook.
// names and drains are the paired slices evictOverBoundLocked returns.
func (r *Registry) notifyEvicted(names []string, drains []*Served) {
	hook := r.evictHook.Load()
	if hook == nil || len(names) == 0 {
		return
	}
	for i, name := range names {
		(*hook)(name, drains[i].gen)
	}
}

// New returns an empty registry.
func New(opt Options) *Registry {
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.DiscardHandler)
	}
	return &Registry{opt: opt, entries: make(map[string]*entry)}
}

// buildServed wraps a model in an Engine outside any lock and applies
// the configured warmup policy. Cancelling ctx aborts the warmup
// promptly with nothing published; with a lazy policy the only ctx
// sensitivity is the explicit check (wrapping a model is cheap).
// gen <= 0 assigns the next registry-wide generation; a positive gen
// is used verbatim (replication publishes under the originating node's
// generation so X-Model-Generation stays coherent fleet-wide).
func (r *Registry) buildServed(ctx context.Context, name string, m *core.Model, gen int64) (*Served, error) {
	if m == nil || m.H == nil || m.Table == nil {
		return nil, errors.New("registry: nil model")
	}
	eng, err := engine.New(m, engine.Options{})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := eng.Warmup(ctx, r.opt.Warmup); err != nil {
		return nil, err
	}
	if gen <= 0 {
		gen = r.gen.Add(1)
	}
	return &Served{
		name:     name,
		gen:      gen,
		eng:      eng,
		loadedAt: time.Now(),
	}, nil
}

// RaiseGeneration lifts the registry-wide generation counter to at
// least gen. The fleet layer calls it when it learns (via a delete
// tombstone or gossip digest) that the fleet has already used
// generations this registry has never seen, so later local Loads and
// appends number strictly past them and cannot fork history.
func (r *Registry) RaiseGeneration(gen int64) { r.raiseGen(gen) }

// raiseGen lifts the registry-wide generation counter to at least gen,
// so locally assigned generations after an explicit-generation publish
// keep increasing past it.
func (r *Registry) raiseGen(gen int64) {
	for {
		cur := r.gen.Load()
		if cur >= gen || r.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// LoadInfo reports the outcome of a Load.
type LoadInfo struct {
	Name string
	// Generation is the published model's load generation.
	Generation int64
	// Swapped reports whether an older model was hot-swapped out (and
	// fully drained before Load returned).
	Swapped bool
	// Stale reports that a LoadGenerationContext was skipped because
	// the registry already serves this name at the incoming generation
	// or newer; Generation then holds the current (newer) generation.
	Stale bool
	// Evicted lists models removed by the LRU bound, in eviction order.
	Evicted []string
}

// Load publishes a model under a name, hot-swapping any previous model
// with the same name. The old model is drained (all in-flight requests
// finished) before Load returns. Load also enforces the resident-cost
// bound, evicting least-recently-used other models as needed.
func (r *Registry) Load(name string, m *core.Model) (*LoadInfo, error) {
	return r.LoadContext(context.Background(), name, m)
}

// LoadContext is Load under a context: warmup preparation (when
// configured) aborts promptly with ctx.Err() and nothing published
// when ctx is canceled — an aborted snapshot upload stops burning CPU.
// The publish/drain step after a successful preparation is not
// interruptible: once the swap happens it completes, keeping the
// registry consistent.
func (r *Registry) LoadContext(ctx context.Context, name string, m *core.Model) (*LoadInfo, error) {
	if name == "" {
		return nil, errors.New("registry: empty model name")
	}
	buildStart := time.Now()
	s, err := r.buildServed(ctx, name, m, 0)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			r.opt.Logger.LogAttrs(ctx, slog.LevelError, "model load failed",
				slog.String("model", name), slog.String("error", err.Error()))
			if r.opt.LoadHook != nil {
				r.opt.LoadHook(name, err)
			}
		}
		return nil, err
	}

	r.mu.Lock()
	e := r.entries[name]
	if e == nil {
		e = &entry{}
		r.entries[name] = e
	}
	old := e.cur.Swap(s)
	e.ds.Store(nil)
	e.lastUsed.Store(r.clock.Add(1))
	evictedNames, drains := r.evictOverBoundLocked(name)
	r.mu.Unlock()

	info := &LoadInfo{Name: name, Generation: s.gen, Evicted: evictedNames}
	if old != nil {
		info.Swapped = true
		r.swaps.Add(1)
		drain(old)
	}
	// The new generation is already installed: evicted snapshots must
	// drain to zero refs regardless of the caller's ctx, or their
	// memory would leak on cancellation.
	//hyperlint:ignore ctxpoll
	for _, d := range drains {
		drain(d)
	}
	r.notifyEvicted(evictedNames, drains)
	for _, victim := range evictedNames {
		r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, "model evicted",
			slog.String("model", victim), slog.String("by", name))
	}
	r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, "model loaded",
		slog.String("model", name),
		slog.Int64("generation", s.gen),
		slog.Int("edges", m.H.NumEdges()),
		slog.Bool("swapped", info.Swapped),
		slog.Duration("build", time.Since(buildStart)))
	if r.opt.LoadHook != nil {
		r.opt.LoadHook(name, nil)
	}
	return info, nil
}

// LoadGenerationContext publishes a model under an explicit generation
// number instead of assigning the next local one. It is the receiving
// half of fleet snapshot replication: a replica publishes exactly the
// generation the originating node assigned, so X-Model-Generation is
// coherent across the fleet and gossip can compare generations
// directly.
//
// If the registry already serves name at gen or newer, nothing is
// published and the returned LoadInfo has Stale set with the current
// generation — replication and gossip pulls are idempotent and late
// deliveries cannot roll a model back. On publish, the registry-wide
// generation counter is raised to at least gen, so later local Loads
// and appends on this node number strictly past everything it has seen
// from the fleet.
func (r *Registry) LoadGenerationContext(ctx context.Context, name string, m *core.Model, gen int64) (*LoadInfo, error) {
	if name == "" {
		return nil, errors.New("registry: empty model name")
	}
	if gen <= 0 {
		return nil, errors.New("registry: explicit generation must be positive")
	}
	// Cheap pre-check before paying for the engine build: a stale
	// delivery is common under gossip races and should cost nothing.
	if cur := r.Peek(name); cur != nil {
		curGen := cur.Generation()
		cur.Release()
		if curGen >= gen {
			return &LoadInfo{Name: name, Generation: curGen, Stale: true}, nil
		}
	}
	buildStart := time.Now()
	s, err := r.buildServed(ctx, name, m, gen)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			r.opt.Logger.LogAttrs(ctx, slog.LevelError, "model load failed",
				slog.String("model", name), slog.String("error", err.Error()))
			if r.opt.LoadHook != nil {
				r.opt.LoadHook(name, err)
			}
		}
		return nil, err
	}

	r.mu.Lock()
	e := r.entries[name]
	if e == nil {
		e = &entry{}
		r.entries[name] = e
	}
	// Re-check under the lock: another replication or a local append
	// may have published an equal-or-newer generation while the engine
	// was being built.
	if cur := e.cur.Load(); cur != nil && cur.gen >= gen {
		curGen := cur.gen
		r.mu.Unlock()
		return &LoadInfo{Name: name, Generation: curGen, Stale: true}, nil
	}
	r.raiseGen(gen)
	old := e.cur.Swap(s)
	e.ds.Store(nil)
	e.lastUsed.Store(r.clock.Add(1))
	evictedNames, drains := r.evictOverBoundLocked(name)
	r.mu.Unlock()

	info := &LoadInfo{Name: name, Generation: gen, Evicted: evictedNames}
	if old != nil {
		info.Swapped = true
		r.swaps.Add(1)
		drain(old)
	}
	//hyperlint:ignore ctxpoll
	for _, d := range drains {
		drain(d)
	}
	r.notifyEvicted(evictedNames, drains)
	for _, victim := range evictedNames {
		r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, "model evicted",
			slog.String("model", victim), slog.String("by", name))
	}
	r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, "model replicated",
		slog.String("model", name),
		slog.Int64("generation", gen),
		slog.Int("edges", m.H.NumEdges()),
		slog.Bool("swapped", info.Swapped),
		slog.Duration("build", time.Since(buildStart)))
	if r.opt.LoadHook != nil {
		r.opt.LoadHook(name, nil)
	}
	return info, nil
}

// evictOverBoundLocked enforces MaxResidentEdges against the true
// resident cost (model edges plus built derived artifacts), never
// evicting the model named keep. It returns the evicted names in
// eviction order and the Served values to drain once the lock drops.
func (r *Registry) evictOverBoundLocked(keep string) ([]string, []*Served) {
	if r.opt.MaxResidentEdges <= 0 {
		return nil, nil
	}
	var names []string
	var drains []*Served
	for r.residentCostLocked() > int64(r.opt.MaxResidentEdges) {
		victim, vs := "", (*Served)(nil)
		var oldest int64
		for name, e := range r.entries {
			if name == keep {
				continue
			}
			s := e.cur.Load()
			if s == nil {
				continue
			}
			if used := e.lastUsed.Load(); victim == "" || used < oldest {
				victim, vs, oldest = name, s, used
			}
		}
		if victim == "" {
			break // only the protected model remains
		}
		// Clear the pointer so readers racing on a stale entry see the
		// eviction instead of retrying on the retired model forever.
		r.entries[victim].cur.Store(nil)
		delete(r.entries, victim)
		r.evicted.Add(1)
		names = append(names, victim)
		drains = append(drains, vs)
	}
	return names, drains
}

// residentCostLocked sums the true resident cost of every loaded
// model: hyperedges plus derived-artifact charges from each engine.
// Lazily built artifacts (a similarity graph someone queried, a grown
// rule cache) are therefore visible to the eviction bound.
func (r *Registry) residentCostLocked() int64 {
	var total int64
	for _, e := range r.entries {
		if s := e.cur.Load(); s != nil {
			total += s.eng.ResidentCost()
		}
	}
	return total
}

// drain retires a swapped-out Served and waits until no reader holds
// it. Readers that raced the swap either finish their current request
// (immutable model, safe — this includes writing the response to a
// slow client) or notice retirement in Acquire and retry on the new
// model, so the wait is bounded by one in-flight request. The backoff
// escalates from Gosched to millisecond sleeps so waiting on a slow
// reader parks instead of burning the core the reader needs.
func drain(s *Served) {
	s.retired.Store(true)
	for i := 0; s.refs.Load() != 0; i++ {
		switch {
		case i < 100:
			runtime.Gosched()
		case i < 1000:
			time.Sleep(100 * time.Microsecond)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// Acquire returns the current model served under name, with a
// reference held, or nil if the name is unknown (or evicted). Callers
// must Release. The fast path is a map read under RLock plus two
// atomic operations — no heap allocation.
func (r *Registry) Acquire(name string) *Served {
	return r.acquire(name, true)
}

// Peek is Acquire without the LRU bump: for observability reads
// (model listings, dashboards) that must not count as model usage, so
// a periodic poll cannot keep an idle model resident past a hotter
// one. Callers must Release.
func (r *Registry) Peek(name string) *Served {
	return r.acquire(name, false)
}

//hyper:noalloc
func (r *Registry) acquire(name string, bumpLRU bool) *Served {
	r.mu.RLock()
	e := r.entries[name]
	r.mu.RUnlock()
	if e == nil {
		return nil
	}
	for {
		s := e.cur.Load()
		if s == nil {
			return nil
		}
		s.refs.Add(1)
		// Double-check after taking the reference: if the model was
		// retired (or replaced) in the window, back out and retry on
		// the current pointer.
		if !s.retired.Load() && e.cur.Load() == s {
			if bumpLRU {
				e.lastUsed.Store(r.clock.Add(1))
			}
			return s
		}
		s.refs.Add(-1)
	}
}

// Remove unloads a model, draining in-flight readers. It reports
// whether the name was present.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	e := r.entries[name]
	var old *Served
	if e != nil {
		old = e.cur.Swap(nil)
		delete(r.entries, name)
	}
	r.mu.Unlock()
	if old != nil {
		drain(old)
	}
	if e != nil {
		r.opt.Logger.LogAttrs(context.Background(), slog.LevelInfo, "model removed",
			slog.String("model", name))
	}
	return e != nil
}

// RemoveGeneration unloads name only if its current generation is at
// most gen, draining in-flight readers, and raises the registry-wide
// generation counter to at least gen either way. It is the receiving
// half of fleet delete replication: a delete stamped with the
// generation it observed must not destroy a concurrent newer write
// (the newest generation wins), and the raised counter keeps later
// local loads numbering past the deleted lineage. It reports whether a
// model was removed.
func (r *Registry) RemoveGeneration(name string, gen int64) bool {
	r.raiseGen(gen)
	r.mu.Lock()
	e := r.entries[name]
	var old *Served
	if e != nil {
		if cur := e.cur.Load(); cur != nil && cur.gen <= gen {
			old = e.cur.Swap(nil)
			delete(r.entries, name)
		}
	}
	r.mu.Unlock()
	if old != nil {
		drain(old)
		r.opt.Logger.LogAttrs(context.Background(), slog.LevelInfo, "model removed",
			slog.String("model", name), slog.Int64("through_generation", gen))
	}
	return old != nil
}

// Names returns the resident model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ModelStats describes one resident model for /stats.
type ModelStats struct {
	Name        string       `json:"name"`
	Generation  int64        `json:"generation"`
	Edges       int          `json:"edges"`
	Attrs       int          `json:"attrs"`
	Rows        int          `json:"rows"`
	RowsOmitted bool         `json:"rows_omitted,omitempty"`
	Queries     int64        `json:"queries"`
	LoadedAt    time.Time    `json:"loaded_at"`
	Cost        int64        `json:"resident_cost"`
	Engine      engine.Stats `json:"engine"`
}

// Stats is a point-in-time registry summary.
type Stats struct {
	Models        []ModelStats `json:"models"`
	ResidentEdges int          `json:"resident_edges"`
	ResidentCost  int64        `json:"resident_cost"`
	MaxEdges      int          `json:"max_resident_edges,omitempty"`
	Swaps         int64        `json:"swaps"`
	Evictions     int64        `json:"evictions"`
}

// Stats snapshots the registry.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := Stats{MaxEdges: r.opt.MaxResidentEdges, Swaps: r.swaps.Load(), Evictions: r.evicted.Load()}
	for name, e := range r.entries {
		s := e.cur.Load()
		if s == nil {
			continue
		}
		m := s.Model()
		st.Models = append(st.Models, ModelStats{
			Name:        name,
			Generation:  s.gen,
			Edges:       m.H.NumEdges(),
			Attrs:       m.Table.NumAttrs(),
			Rows:        m.Table.NumRows(),
			RowsOmitted: m.RowsOmitted,
			Queries:     s.queries.Load(),
			LoadedAt:    s.loadedAt,
			Cost:        s.eng.ResidentCost(),
			Engine:      s.eng.Stats(),
		})
		st.ResidentEdges += m.H.NumEdges()
		st.ResidentCost += s.eng.ResidentCost()
	}
	sort.Slice(st.Models, func(i, j int) bool { return st.Models[i].Name < st.Models[j].Name })
	return st
}
