// Package cluster implements the fault-tolerant shard dispatch layer
// of revnicd's coordinator mode: a Dispatcher whose work queue
// (RunQueue) lets peers pull items over a pluggable Transport, with
// per-attempt timeouts, bounded retries under deterministic
// exponential backoff, straggler stealing, a per-peer circuit breaker,
// and a guaranteed local fallback — a job completes as long as one
// node is alive.
//
// The package is deliberately generic over []byte payloads so it has
// no dependency on the symbolic-execution layer; revnicd's job
// service adapts it to shard tasks.
package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes requests through and watches the failure
	// rate.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects requests until the open interval elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single trial request; its outcome
	// decides between reclosing and reopening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes one peer's circuit breaker.
type BreakerConfig struct {
	// Window is the number of most recent outcomes the failure rate
	// is computed over. Default 20.
	Window int
	// FailureThreshold opens the breaker when the window's failure
	// rate reaches it. Default 0.5.
	FailureThreshold float64
	// MinSamples keeps the breaker closed until the window holds at
	// least this many outcomes, so one early failure cannot trip it.
	// Default 5.
	MinSamples int
	// OpenFor is how long the breaker stays open before admitting a
	// half-open trial. Default 5s.
	OpenFor time.Duration
	// Now is the clock, overridable in tests. Default time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a count-window circuit breaker with the classic
// closed → open → half-open → closed cycle. It is safe for
// concurrent use.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	window   []bool // ring buffer of outcomes, true = failure
	idx      int
	filled   int
	state    BreakerState
	openedAt time.Time
	probing  bool // a half-open trial is in flight
}

// NewBreaker builds a breaker; zero-valued config fields take the
// documented defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}
}

// Allow reports whether a request may be sent now. While open it
// starts returning true once the open interval has elapsed — that
// first true transitions to half-open and claims the single trial
// slot, so concurrent callers cannot stampede a recovering peer.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record feeds one request outcome into the breaker.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if success {
			b.reset()
			return
		}
		b.state = BreakerOpen
		b.openedAt = b.cfg.Now()
	case BreakerClosed:
		b.window[b.idx] = !success
		b.idx = (b.idx + 1) % len(b.window)
		if b.filled < len(b.window) {
			b.filled++
		}
		if b.filled < b.cfg.MinSamples {
			return
		}
		failures := 0
		for i := 0; i < b.filled; i++ {
			if b.window[i] {
				failures++
			}
		}
		if float64(failures)/float64(b.filled) >= b.cfg.FailureThreshold {
			b.state = BreakerOpen
			b.openedAt = b.cfg.Now()
		}
	case BreakerOpen:
		// Late outcomes from requests already in flight when the
		// breaker tripped carry no new information; drop them.
	}
}

// Forgive releases a claimed half-open trial slot without recording
// an outcome, for attempts whose failure says nothing about the peer
// (an attempt cancelled because its item completed elsewhere). A
// breaker in any other state is untouched.
func (b *Breaker) Forgive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// State returns the breaker's current position, surfacing the
// open → half-open transition that Allow would take.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenFor {
		return BreakerHalfOpen
	}
	return b.state
}

// reset returns the breaker to a fresh closed state. Caller holds mu.
func (b *Breaker) reset() {
	b.state = BreakerClosed
	b.idx = 0
	b.filled = 0
	b.probing = false
	for i := range b.window {
		b.window[i] = false
	}
}
