// Package admit implements the admission-control subsystem that sits
// in front of engine.Do on the serving path: the server must degrade
// gracefully when offered load exceeds capacity, shedding excess
// deterministically with correct backpressure signals instead of
// queueing unboundedly and collapsing latency for everyone.
//
// Three mechanisms compose, checked in order on every query:
//
//  1. Circuit breaker (per model): opens after a run of consecutive
//     engine timeouts/internal errors (or a failed snapshot load) and
//     half-opens on a probe schedule; while open, requests are
//     rejected with 503 + Retry-After covering the remaining cooldown.
//  2. Token buckets (per tenant and per model): configurable
//     rate/burst; an empty bucket rejects with 429 + Retry-After
//     derived from the bucket's refill rate. Tenants are identified
//     by the X-Tenant header at the transport layer; requests without
//     one share the DefaultTenant bucket.
//  3. Concurrency gate (per cost class — cheap warm reads vs
//     expensive cold/mining queries, see engine.Request cost
//     classification): at most Capacity requests execute at once;
//     up to Queue more wait in FIFO order; beyond that the request is
//     rejected immediately with 429 + Retry-After computed from the
//     observed service time, so a saturated gate never blocks the
//     accept loop or grows an unbounded backlog.
//
// Every decision is counted per tenant and per model
// (admitted/queued/shed/broken) and exposed through Stats for the
// /stats and /metrics endpoints. All state is race-clean: buckets,
// gates, and breakers are individually locked, counters are atomics,
// and the package's tests run under -race.
package admit

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the bucket requests without an X-Tenant header
// share.
const DefaultTenant = "default"

// Class is a request cost class. The engine classifies each request
// (engine.Request cost classification); the controller gives each
// class its own concurrency gate so a burst of expensive cold queries
// cannot starve the cheap warm path.
type Class int

const (
	// Cheap is the warm read path: classification, similarity,
	// dominator reads against memoized artifacts.
	Cheap Class = iota
	// Expensive is the cold/mining path: rule mining and batches that
	// contain it.
	Expensive

	numClasses
)

// String names the class for stats and metrics labels.
func (c Class) String() string {
	if c == Expensive {
		return "expensive"
	}
	return "cheap"
}

// Outcome reports how an admitted request ended, for breaker and
// service-time accounting.
type Outcome int

const (
	// OutcomeOK: the engine answered (including well-formed client
	// errors — the engine itself worked).
	OutcomeOK Outcome = iota
	// OutcomeFailure: an engine timeout or internal error; feeds the
	// model's circuit breaker.
	OutcomeFailure
	// OutcomeCanceled: the client went away; neutral for the breaker.
	OutcomeCanceled
)

// Config tunes a Controller. Zero values disable the corresponding
// mechanism: rate 0 means unlimited, capacity 0 means ungated,
// breaker threshold 0 means no breaker.
type Config struct {
	// TenantRate/TenantBurst configure every per-tenant token bucket
	// (tokens per second / bucket size).
	TenantRate  float64
	TenantBurst float64
	// ModelRate/ModelBurst configure every per-model token bucket.
	ModelRate  float64
	ModelBurst float64
	// CheapCapacity/CheapQueue bound the cheap-class gate: concurrent
	// executions and FIFO waiters.
	CheapCapacity int
	CheapQueue    int
	// ExpensiveCapacity/ExpensiveQueue bound the expensive-class gate.
	ExpensiveCapacity int
	ExpensiveQueue    int
	// BreakerFailures is the consecutive-failure threshold that opens
	// a model's breaker.
	BreakerFailures int
	// BreakerCooldown is how long a breaker stays open before
	// half-opening for one probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Now overrides the clock, for deterministic tests.
	Now func() time.Time
}

// DefaultBreakerCooldown is the open-state duration before a probe.
const DefaultBreakerCooldown = 5 * time.Second

// Reason labels why a request was rejected.
type Reason string

const (
	ReasonBreakerOpen       Reason = "breaker_open"
	ReasonTenantRateLimited Reason = "tenant_rate_limited"
	ReasonModelRateLimited  Reason = "model_rate_limited"
	ReasonQueueFull         Reason = "queue_full"
)

// Rejection is a shed request's backpressure signal: the HTTP status
// the transport should return (429 for rate/queue pressure, 503 for
// an open breaker) and the Retry-After the client should honor.
type Rejection struct {
	Status     int
	Reason     Reason
	RetryAfter time.Duration
}

// counts is the per-party atomic counter block.
type counts struct {
	admitted atomic.Int64
	queued   atomic.Int64
	shed     atomic.Int64
	broken   atomic.Int64
}

// tenantState is the per-tenant admission state.
type tenantState struct {
	bucket *bucket
	counts counts
}

// modelState is the per-model admission state. name is the map key it
// lives under, so a *modelState can serve as its own one-entry cache
// record (see Controller.lastModel).
type modelState struct {
	name    string
	bucket  *bucket
	breaker *Breaker
	counts  counts
}

// Controller is the admission-control front of a server: one Admit
// call per query, one Ticket per admitted query. Safe for concurrent
// use.
type Controller struct {
	cfg   Config
	now   func() time.Time
	epoch time.Time // the zero of nanos
	gates [numClasses]*Gate

	// Party state is keyed by name in sync.Maps: the steady state is
	// all hits, which sync.Map serves lock-free — the admission path
	// must stay far below the cost of the queries it fronts. Two
	// read caches shave the common lookups further: defaultTenant
	// (header-less traffic all shares one bucket) and lastModel (most
	// deployments serve one hot model; a miss just falls back to the
	// map).
	tenants       sync.Map // string -> *tenantState
	models        sync.Map // string -> *modelState
	defaultTenant *tenantState
	lastModel     atomic.Pointer[modelState]

	// queueWait, when set, observes each real gate wait (class, wait
	// duration). Set via ObserveQueueWait before serving traffic.
	queueWait func(Class, time.Duration)
}

// ObserveQueueWait installs an observer for gate queue waits — the
// telemetry hook behind the admission queue-wait histogram. It must be
// called before the controller starts admitting requests; it is not
// synchronized against concurrent AdmitInto calls.
func (c *Controller) ObserveQueueWait(fn func(Class, time.Duration)) {
	c.queueWait = fn
}

// NewController returns a Controller for the config.
func NewController(cfg Config) *Controller {
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	c := &Controller{cfg: cfg, now: now, epoch: now()}
	if cfg.CheapCapacity > 0 {
		c.gates[Cheap] = NewGate(cfg.CheapCapacity, cfg.CheapQueue)
	}
	if cfg.ExpensiveCapacity > 0 {
		c.gates[Expensive] = NewGate(cfg.ExpensiveCapacity, cfg.ExpensiveQueue)
	}
	c.defaultTenant = c.tenant(DefaultTenant)
	return c
}

// nanos is the controller's clock for buckets and service times:
// nanoseconds since epoch. Without a test clock it reads only the
// monotonic clock (time.Since), measurably cheaper than time.Now.
func (c *Controller) nanos() int64 {
	if c.cfg.Now != nil {
		return c.cfg.Now().Sub(c.epoch).Nanoseconds()
	}
	return int64(time.Since(c.epoch))
}

// Gate returns the class's concurrency gate, or nil when the class is
// ungated. Exposed for tests and stats.
func (c *Controller) Gate(class Class) *Gate {
	if class < 0 || class >= numClasses {
		return nil
	}
	return c.gates[class]
}

func (c *Controller) tenant(name string) *tenantState {
	if v, ok := c.tenants.Load(name); ok {
		return v.(*tenantState)
	}
	t := &tenantState{}
	if c.cfg.TenantRate > 0 {
		t.bucket = newBucket(c.cfg.TenantRate, c.cfg.TenantBurst)
	}
	v, _ := c.tenants.LoadOrStore(name, t)
	return v.(*tenantState)
}

func (c *Controller) model(name string) *modelState {
	if m := c.lastModel.Load(); m != nil && m.name == name {
		return m
	}
	m := c.modelSlow(name)
	c.lastModel.Store(m)
	return m
}

func (c *Controller) modelSlow(name string) *modelState {
	if v, ok := c.models.Load(name); ok {
		return v.(*modelState)
	}
	m := &modelState{name: name}
	if c.cfg.ModelRate > 0 {
		m.bucket = newBucket(c.cfg.ModelRate, c.cfg.ModelBurst)
	}
	if c.cfg.BreakerFailures > 0 {
		m.breaker = NewBreaker(c.cfg.BreakerFailures, c.cfg.BreakerCooldown, c.now)
	}
	v, _ := c.models.LoadOrStore(name, m)
	return v.(*modelState)
}

// Ticket is one admitted request: call Done with the outcome so the
// gate slot is released, the service time observed, and the breaker
// fed. The zero Ticket is valid — Done on it is a no-op — so
// transports can keep one on the stack whether or not a controller is
// configured. A ticket belongs to its request's goroutine: Done must
// not race with itself.
type Ticket struct {
	ctl     *Controller
	gate    *Gate
	breaker *Breaker
	probe   bool
	sampled bool  // this request times its service for the gate EWMA
	start   int64 // controller nanos at admission, when sampled
}

// Admit runs one query through the admission pipeline. Exactly one of
// the results is non-nil:
//
//   - a *Ticket when admitted (call Done when the query finishes);
//   - a *Rejection when shed (write the 429/503 + Retry-After);
//   - an error when ctx ended while the request waited in a gate
//     queue (the transport maps it like any other ctx failure).
//
// An empty tenant means DefaultTenant.
func (c *Controller) Admit(ctx context.Context, tenant, model string, class Class) (*Ticket, *Rejection, error) {
	t := new(Ticket)
	admitted, rej, err := c.AdmitInto(ctx, t, tenant, model, class)
	if !admitted {
		return nil, rej, err
	}
	return t, nil, nil
}

// AdmitInto is Admit with a caller-allocated Ticket — the serving hot
// path runs once per query, so the transport keeps the Ticket on its
// stack instead of paying a heap allocation. t must be zero; it is
// filled on admission and left untouched otherwise (Done on it stays
// a no-op). admitted reports whether t is live.
func (c *Controller) AdmitInto(ctx context.Context, t *Ticket, tenant, model string, class Class) (admitted bool, _ *Rejection, _ error) {
	var ts *tenantState
	if tenant == "" || tenant == DefaultTenant {
		ts = c.defaultTenant
	} else {
		ts = c.tenant(tenant)
	}
	ms := c.model(model)

	// 1. Breaker: a model that keeps failing is not asked again until
	// the cooldown elapses; one probe at a time thereafter.
	var probe bool
	if ms.breaker != nil {
		ok, isProbe, retry := ms.breaker.Allow()
		if !ok {
			ts.counts.broken.Add(1)
			ms.counts.broken.Add(1)
			return false, &Rejection{Status: 503, Reason: ReasonBreakerOpen, RetryAfter: retry}, nil
		}
		probe = isProbe
	}

	reject := func(rej *Rejection) (bool, *Rejection, error) {
		ts.counts.shed.Add(1)
		ms.counts.shed.Add(1)
		if probe {
			// The probe slot must not leak when a later stage sheds
			// the probing request.
			ms.breaker.Record(true, OutcomeCanceled)
		}
		return false, rej, nil
	}

	// 2. Token buckets: tenant first (the flood we are isolating),
	// then model. One clock read serves both buckets and the ticket's
	// start time — reading the clock is a meaningful share of the
	// admission budget.
	now := c.nanos()
	if ts.bucket != nil {
		if ok, retry := ts.bucket.take(now); !ok {
			return reject(&Rejection{Status: 429, Reason: ReasonTenantRateLimited, RetryAfter: retry})
		}
	}
	if ms.bucket != nil {
		if ok, retry := ms.bucket.take(now); !ok {
			return reject(&Rejection{Status: 429, Reason: ReasonModelRateLimited, RetryAfter: retry})
		}
	}

	// 3. Concurrency gate for the cost class.
	gate := c.Gate(class)
	var waited bool
	if gate != nil {
		var err error
		waited, err = gate.Enter(ctx)
		switch {
		case err == ErrQueueFull:
			return reject(&Rejection{Status: 429, Reason: ReasonQueueFull, RetryAfter: gate.RetryAfter()})
		case err != nil:
			// ctx ended while queued: the client is gone, nothing was
			// shed by policy. The wait itself is still counted (and
			// observed — an abandoned wait is still queue time).
			ts.counts.queued.Add(1)
			ms.counts.queued.Add(1)
			if c.queueWait != nil {
				c.queueWait(class, time.Duration(c.nanos()-now))
			}
			if probe {
				ms.breaker.Record(true, OutcomeCanceled)
			}
			return false, nil, err
		}
	}
	t.ctl, t.gate, t.breaker, t.probe = c, gate, ms.breaker, probe
	var afterWait int64
	if waited {
		// One clock read serves both the queue-wait observation and
		// the sampled ticket's service-time start below.
		afterWait = c.nanos()
		if c.queueWait != nil {
			c.queueWait(class, time.Duration(afterWait-now))
		}
	}
	if gate != nil && gate.shouldSample() {
		t.sampled = true
		t.start = now
		if waited {
			// Queue time is not service time; restart the clock.
			t.start = afterWait
		}
	}
	if waited {
		ts.counts.queued.Add(1)
		ms.counts.queued.Add(1)
	}
	ts.counts.admitted.Add(1)
	ms.counts.admitted.Add(1)
	return true, nil, nil
}

// RecordLoad feeds a model's breaker from the snapshot-load path: a
// failed load counts as a model failure (and may open the breaker), a
// successful load resets the breaker — a freshly published model
// deserves a clean slate.
func (c *Controller) RecordLoad(model string, err error) {
	ms := c.model(model)
	if ms.breaker == nil {
		return
	}
	if err != nil {
		ms.breaker.RecordFailure()
	} else {
		ms.breaker.Reset()
	}
}

// Done releases the admitted request: the gate slot is freed (waking
// the oldest waiter), the observed service time feeds the
// Retry-After estimator, and the outcome feeds the model's breaker.
// Done is idempotent: it zeroes the ticket, and Done on a zero ticket
// does nothing.
func (t *Ticket) Done(outcome Outcome) {
	if t == nil {
		return
	}
	tk := *t
	*t = Ticket{}
	if tk.gate != nil {
		var service time.Duration
		if tk.sampled {
			service = time.Duration(tk.ctl.nanos() - tk.start)
		}
		tk.gate.Leave(service)
	}
	if tk.breaker != nil {
		tk.breaker.Record(tk.probe, outcome)
	}
}

// Counts is a plain snapshot of one party's counters.
type Counts struct {
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	Shed     int64 `json:"shed"`
	Broken   int64 `json:"broken"`
}

// PartyStats is one tenant's or model's counter snapshot.
type PartyStats struct {
	Name string `json:"name"`
	Counts
}

// GateStats is one gate's point-in-time state.
type GateStats struct {
	Class        string `json:"class"`
	Capacity     int    `json:"capacity"`
	MaxQueue     int    `json:"max_queue"`
	InFlight     int    `json:"in_flight"`
	Queued       int    `json:"queued"`
	AvgServiceNs int64  `json:"avg_service_ns"`
}

// BreakerStats is one model breaker's point-in-time state.
type BreakerStats struct {
	Model    string `json:"model"`
	State    string `json:"state"`
	Failures int    `json:"consecutive_failures"`
	Opens    int64  `json:"opens"`
}

// Stats is the controller's observable state, rendered with
// deterministic ordering (names sorted) for /stats and /metrics.
type Stats struct {
	Tenants  []PartyStats   `json:"tenants"`
	Models   []PartyStats   `json:"models"`
	Gates    []GateStats    `json:"gates"`
	Breakers []BreakerStats `json:"breakers,omitempty"`
}

func snapshotCounts(c *counts) Counts {
	return Counts{
		Admitted: c.admitted.Load(),
		Queued:   c.queued.Load(),
		Shed:     c.shed.Load(),
		Broken:   c.broken.Load(),
	}
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	var tenantNames, modelNames []string
	c.tenants.Range(func(k, _ any) bool {
		tenantNames = append(tenantNames, k.(string))
		return true
	})
	c.models.Range(func(k, _ any) bool {
		modelNames = append(modelNames, k.(string))
		return true
	})
	sort.Strings(tenantNames)
	sort.Strings(modelNames)

	var st Stats
	for _, name := range tenantNames {
		st.Tenants = append(st.Tenants, PartyStats{Name: name, Counts: snapshotCounts(&c.tenant(name).counts)})
	}
	for _, name := range modelNames {
		ms := c.model(name)
		st.Models = append(st.Models, PartyStats{Name: name, Counts: snapshotCounts(&ms.counts)})
		if ms.breaker != nil {
			state, failures, opens := ms.breaker.Snapshot()
			st.Breakers = append(st.Breakers, BreakerStats{
				Model: name, State: state.String(), Failures: failures, Opens: opens,
			})
		}
	}
	for class := Class(0); class < numClasses; class++ {
		g := c.gates[class]
		if g == nil {
			continue
		}
		inflight, queued := g.Load()
		st.Gates = append(st.Gates, GateStats{
			Class:        class.String(),
			Capacity:     g.Capacity(),
			MaxQueue:     g.MaxQueue(),
			InFlight:     inflight,
			Queued:       queued,
			AvgServiceNs: g.AvgServiceNs(),
		})
	}
	return st
}
