package admit

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request at a time is admitted; its
	// outcome closes or reopens the breaker.
	BreakerHalfOpen
)

// String names the state for stats and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// Breaker is a per-model circuit breaker: it opens after threshold
// consecutive failures (engine timeouts/internal errors, failed
// snapshot loads), stays open for cooldown rejecting everything with
// a Retry-After of the remaining cooldown, then half-opens and
// admits one probe at a time — a probe success closes it, a probe
// failure reopens it for another full cooldown.
// A closed breaker — the steady state of a healthy model — is
// lock-free on both sides: Allow is one atomic load and Record of a
// success is two loads (plus a store after a failure). Transitions
// and everything rarer (failures, open/half-open traffic) go through
// the mutex; state is only ever written while mu is held.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state    atomic.Int32 // BreakerState
	failures atomic.Int32 // consecutive, in closed state

	mu       sync.Mutex
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	opens    int64
}

// NewBreaker returns a closed breaker; now overrides the clock for
// deterministic tests (nil means time.Now).
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may proceed. probe is set when the
// admitted request is the half-open probe — its Record call decides
// the breaker's fate. When rejected, retry is the remaining cooldown
// (or the full cooldown while a probe is pending).
func (b *Breaker) Allow() (ok, probe bool, retry time.Duration) {
	if BreakerState(b.state.Load()) == BreakerClosed {
		return true, false, 0
	}
	return b.allowSlow()
}

func (b *Breaker) allowSlow() (ok, probe bool, retry time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed: // closed while this request took the lock
		return true, false, 0
	case BreakerOpen:
		remaining := b.openedAt.Add(b.cooldown).Sub(b.now())
		if remaining > 0 {
			return false, false, remaining
		}
		b.probing = true
		b.state.Store(int32(BreakerHalfOpen))
		return true, true, 0
	default: // BreakerHalfOpen
		if b.probing {
			return false, false, b.cooldown
		}
		b.probing = true
		return true, true, 0
	}
}

// Record feeds one finished request's outcome back. probe must be the
// value Allow returned for that request. Canceled outcomes are
// neutral: they release a pending probe without judging the model.
func (b *Breaker) Record(probe bool, outcome Outcome) {
	if !probe && outcome == OutcomeOK && BreakerState(b.state.Load()) == BreakerClosed {
		// Hot path: healthy traffic on a closed breaker. The reset is
		// a load first: a store on every request would bounce the
		// cache line between cores even when the count is already
		// zero. If the breaker opens concurrently, a stale reset is
		// harmless — opening already zeroed the count.
		if b.failures.Load() != 0 {
			b.failures.Store(0)
		}
		return
	}
	b.recordSlow(probe, outcome)
}

func (b *Breaker) recordSlow(probe bool, outcome Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe && BreakerState(b.state.Load()) == BreakerHalfOpen {
		b.probing = false
		switch outcome {
		case OutcomeOK:
			b.state.Store(int32(BreakerClosed))
			b.failures.Store(0)
		case OutcomeFailure:
			b.openLocked()
		}
		return
	}
	// Non-probe traffic only matters while closed (requests admitted
	// before the breaker opened may still drain afterwards; their
	// outcomes must not flap a state they did not see).
	if BreakerState(b.state.Load()) != BreakerClosed {
		return
	}
	switch outcome {
	case OutcomeOK:
		b.failures.Store(0)
	case OutcomeFailure:
		if int(b.failures.Add(1)) >= b.threshold {
			b.openLocked()
		}
	}
}

// RecordFailure counts one failure event outside the request path
// (a failed snapshot load): it advances the consecutive-failure count
// exactly like a failed request, and reopens a half-open breaker.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed:
		if int(b.failures.Add(1)) >= b.threshold {
			b.openLocked()
		}
	case BreakerHalfOpen:
		b.probing = false
		b.openLocked()
	}
}

// Reset force-closes the breaker (a fresh model was published).
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state.Store(int32(BreakerClosed))
	b.failures.Store(0)
	b.probing = false
}

// openLocked transitions to open; callers hold b.mu.
func (b *Breaker) openLocked() {
	b.state.Store(int32(BreakerOpen))
	b.openedAt = b.now()
	b.failures.Store(0)
	b.opens++
}

// Snapshot reports the state, the consecutive-failure count, and how
// many times the breaker has opened.
func (b *Breaker) Snapshot() (state BreakerState, failures int, opens int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerState(b.state.Load()), int(b.failures.Load()), b.opens
}
