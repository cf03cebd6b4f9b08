// Package registry is the serving side's set of named models. Each
// name serves one generation at a time: a mined model wrapped in an
// engine.Engine, which builds the derived artifacts (similarity graph,
// dominator, classifier, rule cache) on first use or, under the
// Options.Warmup policy, before the generation is published. Readers
// Acquire a generation (a map read, a pointer load and a refcount
// increment; no lock is held while querying), query it, and Release
// it. A bound on resident cost evicts least-recently-used models.
//
// Every write ends in one publish step: a Load, a replicated load
// (LoadGenerationContext), an append (AppendRowsContext), a Remove and
// a replicated remove (RemoveGeneration). Under the registry mutex it
// checks the write against the generation served now, assigns the new
// generation, swaps it in with one pointer store and evicts over the
// bound. After unlocking it drains the replaced generation and the
// victims: each is marked retired and waited on until its in-flight
// readers finish. Because generations are assigned at the swap, they
// are published in increasing order and a reader never sees a name's
// generation go back. A reader that raced a swap finishes on the
// retired generation, whose engine is immutable; Acquire never returns
// a retired generation, so a drain ends.
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

	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/engine"
)

// Options tunes a Registry.
type Options struct {
	// MaxResidentEdges bounds the total resident cost of loaded
	// models, in edge-equivalent units: each model is charged its
	// hyperedge count plus the converted size of every derived
	// artifact its engine has built (similarity matrix, classifier,
	// rule cache — see engine.Engine.ResidentCost). 0 means unlimited.
	// When a load or an append pushes the total over the bound,
	// least-recently-used models are evicted (never the one being
	// published) until the total fits or nothing else remains.
	MaxResidentEdges int
	// Warmup selects which derived artifacts loads and appends build
	// eagerly before publishing (an append also rebuilds whatever the
	// generation it extends had built). The zero value keeps models
	// lazy; engine.WarmupAll prepares everything for latency-critical
	// serving.
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
// Queries and derived artifacts go through Engine, which builds them
// lazily and is safe from any number of goroutines.
type Served struct {
	name     string
	gen      int64 // registry-wide generation, assigned at publish
	eng      *engine.Engine
	loadedAt time.Time
	refs     atomic.Int64
	retired  atomic.Bool
	queries  atomic.Int64
}

// Name returns the registry name the model is served under.
func (s *Served) Name() string { return s.name }

// Generation returns the registry-wide generation of this model. Every
// publish under a name assigns a larger one than the generation it
// replaces.
func (s *Served) Generation() int64 { return s.gen }

// Engine returns the prepared-model query engine. All query traffic
// should go through it (Engine.Do or the typed methods).
func (s *Served) Engine() *engine.Engine { return s.eng }

// Model returns the underlying immutable model.
func (s *Served) Model() *core.Model { return s.eng.Model() }

// LoadedAt returns when the model was published.
func (s *Served) LoadedAt() time.Time { return s.loadedAt }

// Queries returns how many queries have been counted on this model.
func (s *Served) Queries() int64 { return s.queries.Load() }

// CountQuery increments the model's query counter.
func (s *Served) CountQuery() { s.queries.Add(1) }

// Release ends an Acquire. The Served must not be used afterwards.
//
//hyper:noalloc
func (s *Served) Release() { s.refs.Add(-1) }

type entry struct {
	cur      atomic.Pointer[Served]
	lastUsed atomic.Int64

	// appendMu serializes appends on this name. ds is the live-dataset
	// state behind AppendRowsContext: only an append holding appendMu
	// advances it, and it is stored only while r.mu shows the model it
	// extends still published. Every publish sets ds under r.mu — an
	// append to the dataset it advanced, a load to nil — without
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
	gen     int64        // last generation assigned; guarded by mu
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

// New returns an empty registry.
func New(opt Options) *Registry {
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.DiscardHandler)
	}
	return &Registry{opt: opt, entries: make(map[string]*entry)}
}

// newServed is the one constructor of a Served: publish calls it
// under r.mu once the generation is assigned.
func newServed(name string, gen int64, eng *engine.Engine) *Served {
	return &Served{name: name, gen: gen, eng: eng, loadedAt: time.Now()}
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
	return r.load(ctx, name, m, 0)
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
	return r.load(ctx, name, m, gen)
}

// load wraps m in an Engine outside any lock, applies the warmup
// policy and publishes the result: at the next local generation when
// gen is 0, else at gen unless the generation served now is as new.
// Cancelling ctx aborts the warmup promptly with nothing published;
// with a lazy policy the only ctx sensitivity is the explicit check
// (wrapping a model is cheap).
func (r *Registry) load(ctx context.Context, name string, m *core.Model, gen int64) (*LoadInfo, error) {
	if name == "" {
		return nil, errors.New("registry: empty model name")
	}
	start := time.Now()
	eng, err := r.prepare(ctx, m)
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
	msg, admit := "model loaded", (func(*Served) bool)(nil)
	if gen > 0 {
		// Another replication or a local append may have published an
		// equal-or-newer generation while the engine was being built.
		msg = "model replicated"
		admit = func(cur *Served) bool { return cur == nil || cur.gen < gen }
	}
	p := r.publish(ctx, write{name: name, eng: eng, gen: gen}, admit)
	if p.refused {
		return &LoadInfo{Name: name, Generation: p.served.gen, Stale: true}, nil
	}
	info := &LoadInfo{Name: name, Generation: p.served.gen, Swapped: p.old != nil, Evicted: p.evicted}
	r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, msg,
		slog.String("model", name),
		slog.Int64("generation", info.Generation),
		slog.Int("edges", m.H.NumEdges()),
		slog.Bool("swapped", info.Swapped),
		slog.Duration("build", time.Since(start)))
	if r.opt.LoadHook != nil {
		r.opt.LoadHook(name, nil)
	}
	return info, nil
}

// prepare validates a loaded model and builds its engine under the
// warmup policy.
func (r *Registry) prepare(ctx context.Context, m *core.Model) (*engine.Engine, error) {
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
	return eng, nil
}

// write is one registry write as the publish step sees it. Its fields
// and publish's admit check are all that differs between a load, an
// append and a remove.
type write struct {
	name string
	// eng is the next generation's engine; nil removes name.
	eng *engine.Engine
	// ds is the live dataset an append advanced to eng's model, kept
	// for the next append; nil drops the entry's dataset.
	ds *delta.Dataset
	// gen, when positive, is an explicit generation: the registry-wide
	// counter is raised to it and eng publishes under it. 0 publishes
	// under the next local generation.
	gen int64
}

// publication reports what publish did.
type publication struct {
	// served is the generation served under the name after the write:
	// the one published, the one kept when the write was refused, or
	// nil.
	served *Served
	// old is the generation the write replaced or removed, drained
	// before publish returned; nil if there was none or it was refused.
	old *Served
	// evicted lists the models the resident-cost bound pushed out, in
	// eviction order.
	evicted []string
	refused bool
}

// publish is the step every registry write ends in. Under r.mu it
// runs admit, when set, on the generation served now (nil if none); a
// false result refuses the write. Otherwise it assigns the generation,
// swaps the entry's served generation (or deletes the entry for a
// remove) and, when it published, evicts least-recently-used other
// models over the bound. After unlocking it drains the replaced
// generation and the victims, which is not interruptible: once the
// swap happens it completes, keeping the registry consistent and the
// drained memory freed. admit is a parameter rather than a field of w
// so that the caller's closure does not escape to the heap.
func (r *Registry) publish(ctx context.Context, w write, admit func(cur *Served) bool) publication {
	r.mu.Lock()
	r.gen = max(r.gen, w.gen)
	e := r.entries[w.name]
	var cur *Served
	if e != nil {
		cur = e.cur.Load()
	}
	if admit != nil && !admit(cur) {
		r.mu.Unlock()
		return publication{served: cur, refused: true}
	}
	p := publication{old: cur}
	var victims []*Served
	if w.eng == nil {
		if e != nil {
			e.cur.Store(nil)
			delete(r.entries, w.name)
		}
	} else {
		gen := w.gen
		if gen <= 0 {
			r.gen++
			gen = r.gen
		}
		p.served = newServed(w.name, gen, w.eng)
		if e == nil {
			e = &entry{}
			r.entries[w.name] = e
		}
		e.cur.Store(p.served)
		e.ds.Store(w.ds)
		e.lastUsed.Store(r.clock.Add(1))
		victims = r.evictOverBoundLocked(w.name)
	}
	r.mu.Unlock()

	if p.old != nil {
		if p.served != nil {
			r.swaps.Add(1)
		}
		drain(p.old)
	}
	hook := r.evictHook.Load()
	for _, v := range victims {
		drain(v)
		p.evicted = append(p.evicted, v.name)
		if hook != nil {
			(*hook)(v.name, v.gen)
		}
		r.opt.Logger.LogAttrs(ctx, slog.LevelInfo, "model evicted",
			slog.String("model", v.name), slog.String("by", w.name))
	}
	return p
}

// evictOverBoundLocked enforces MaxResidentEdges against the true
// resident cost (model edges plus built derived artifacts), never
// evicting the model named keep. It returns the evicted generations in
// eviction order, to drain once the lock drops.
func (r *Registry) evictOverBoundLocked(keep string) []*Served {
	if r.opt.MaxResidentEdges <= 0 {
		return nil
	}
	var victims []*Served
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
		victims = append(victims, vs)
	}
	return victims
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
	p := r.publish(context.Background(), write{name: name}, nil)
	if p.old != nil {
		r.opt.Logger.LogAttrs(context.Background(), slog.LevelInfo, "model removed",
			slog.String("model", name))
	}
	return p.old != nil
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
	p := r.publish(context.Background(), write{name: name, gen: gen},
		func(cur *Served) bool { return cur != nil && cur.gen <= gen })
	if p.old != nil {
		r.opt.Logger.LogAttrs(context.Background(), slog.LevelInfo, "model removed",
			slog.String("model", name), slog.Int64("through_generation", gen))
	}
	return p.old != nil
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
