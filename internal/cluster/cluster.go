package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// peerSlots is how many queue items one peer executes concurrently in
// RunQueue (its pull width).
const peerSlots = 2

// localSlots is how many queue items the local fallback executes
// concurrently in RunQueue. One slot pulls alongside the peers as a
// regular capacity unit; the other only drains items whose remote
// attempts are exhausted, so a healthy cluster is not starved by an
// eager coordinator. With no peers configured both slots pull,
// preserving local parallelism.
const localSlots = 2

// Config tunes a Dispatcher.
type Config struct {
	// Peers are the base URLs (or opaque names, for non-HTTP
	// transports) work may be sent to. Empty means every queue item
	// runs locally.
	Peers []string
	// Transport moves payloads; required when Peers is non-empty.
	Transport Transport
	// AttemptTimeout bounds each remote attempt. Default 60s.
	AttemptTimeout time.Duration
	// MaxAttempts is how many remote attempts are made per item before
	// the local fallback takes it over. Default 3.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry pauses. Defaults
	// 100ms and 5s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed feeds the deterministic backoff jitter.
	Seed int64
	// StealInterval is how often RunQueue re-examines in-flight items
	// for stragglers (and wakes workers waiting out a backoff).
	// Default 25ms.
	StealInterval time.Duration
	// StealAfterMin floors the straggler threshold: an attempt is
	// never stolen before being in flight this long. Default 750ms.
	StealAfterMin time.Duration
	// StealMultiple scales the EWMA-derived straggler threshold: an
	// attempt is stealable once it has been in flight longer than
	// StealMultiple × the fastest sampled peer's EWMA latency
	// (floored by StealAfterMin, capped by AttemptTimeout). Default 3.
	StealMultiple float64
	// Breaker tunes the per-peer circuit breakers.
	Breaker BreakerConfig
	// Logf, when set, receives one line per notable event (retry,
	// steal, local fallback, failed probe).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 60 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 25 * time.Millisecond
	}
	if c.StealAfterMin <= 0 {
		c.StealAfterMin = 750 * time.Millisecond
	}
	if c.StealMultiple <= 0 {
		c.StealMultiple = 3
	}
	return c
}

// Dispatcher runs work queues (RunQueue) across peers with retries,
// straggler stealing and per-peer circuit breaking, falling back to
// local execution when remote delivery fails. It is safe for
// concurrent use; revnicd runs one queue per job phase concurrently.
type Dispatcher struct {
	cfg Config

	mu       sync.Mutex
	breakers map[string]*Breaker

	tracker *tracker
	metrics *metrics
}

// NewDispatcher builds a dispatcher; zero-valued config fields take
// the documented defaults.
func NewDispatcher(cfg Config) *Dispatcher {
	return &Dispatcher{
		cfg:      cfg.withDefaults(),
		breakers: make(map[string]*Breaker),
		tracker:  newTracker(),
		metrics:  newMetrics(),
	}
}

// Peers returns the configured peer list.
func (d *Dispatcher) Peers() []string { return d.cfg.Peers }

func (d *Dispatcher) breaker(peer string) *Breaker {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.breakers[peer]
	if b == nil {
		b = NewBreaker(d.cfg.Breaker)
		d.breakers[peer] = b
	}
	return b
}

func (d *Dispatcher) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// attemptResult is the outcome of one remote attempt.
type attemptResult struct {
	body       []byte
	err        error
	overload   bool
	retryAfter time.Duration
}

// errShardWon is the cancellation cause RunQueue attaches when an
// item completes elsewhere (first-completion-wins): the losing
// attempt's failure is an artifact of the race, so it must not poison
// the peer's breaker, failure counters or latency estimate.
var errShardWon = errors.New("cluster: item completed elsewhere")

// tryPeer makes one bounded attempt against one peer and classifies
// the outcome: success, overload (503 — retryable, not a breaker
// failure), or failure (transport error, unexpected status, or a body
// the caller's accept rejects). Successful attempts feed the peer's
// EWMA latency estimate.
func (d *Dispatcher) tryPeer(ctx context.Context, peer string, payload []byte, accept func([]byte) error) attemptResult {
	d.metrics.add(peer, func(s *peerStats) { s.attempts++ })
	d.tracker.start(peer)
	startT := time.Now()
	success := false
	defer func() { d.tracker.finish(peer, time.Since(startT), success) }()
	actx, cancel := context.WithTimeout(ctx, d.cfg.AttemptTimeout)
	defer cancel()
	resp, err := d.cfg.Transport.Send(actx, peer, payload)
	br := d.breaker(peer)
	fail := func(err error) attemptResult {
		if errors.Is(context.Cause(ctx), errShardWon) {
			// Cancelled because the item already finished elsewhere —
			// not evidence about this peer's health. Release the
			// half-open trial slot the worker may have claimed.
			br.Forgive()
			return attemptResult{err: err}
		}
		br.Record(false)
		d.metrics.add(peer, func(s *peerStats) { s.failures++ })
		return attemptResult{err: err}
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", peer, err))
	}
	if resp.Status == http.StatusServiceUnavailable {
		// The peer is healthy but full (admission control); back off
		// without poisoning its breaker.
		d.metrics.add(peer, func(s *peerStats) { s.overloads++ })
		return attemptResult{
			err:        fmt.Errorf("%s: overloaded (503)", peer),
			overload:   true,
			retryAfter: resp.RetryAfter,
		}
	}
	if resp.Status != http.StatusOK {
		return fail(fmt.Errorf("%s: unexpected status %d", peer, resp.Status))
	}
	if err := accept(resp.Body); err != nil {
		return fail(fmt.Errorf("%s: rejected response: %w", peer, err))
	}
	br.Record(true)
	success = true
	d.metrics.add(peer, func(s *peerStats) { s.successes++ })
	return attemptResult{body: resp.Body}
}

// sleepCtx pauses for delay unless the context ends first.
func sleepCtx(ctx context.Context, delay time.Duration) error {
	if delay <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// StartProber begins periodic health probes of every configured peer,
// feeding outcomes into the per-peer breakers: probe failures trip
// the breaker of an unreachable peer before any shard is wasted on
// it, and a successful probe is the half-open trial that recloses it.
// The returned stop function halts probing and waits for in-flight
// probes.
func (d *Dispatcher) StartProber(interval time.Duration) (stop func()) {
	if interval <= 0 || len(d.cfg.Peers) == 0 || d.cfg.Transport == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				d.probeAll(done)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// probeAll probes every peer once, concurrently.
func (d *Dispatcher) probeAll(done <-chan struct{}) {
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.AttemptTimeout)
	defer cancel()
	go func() {
		select {
		case <-done:
			cancel()
		case <-ctx.Done():
		}
	}()
	var wg sync.WaitGroup
	for _, p := range d.cfg.Peers {
		br := d.breaker(p)
		if !br.Allow() {
			continue
		}
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			err := d.cfg.Transport.Probe(ctx, p)
			br.Record(err == nil)
			if err != nil {
				d.logf("cluster: probe %s failed: %v", p, err)
			}
		}(p)
	}
	wg.Wait()
}
