package cluster

import (
	"sort"
	"sync"
)

// peerStats accumulates one peer's dispatch counters.
type peerStats struct {
	attempts  int64
	retries   int64
	successes int64
	failures  int64
	overloads int64
}

// metrics is the dispatcher's counter store.
type metrics struct {
	mu        sync.Mutex
	peers     map[string]*peerStats
	fallbacks int64

	// Work-queue observations (RunQueue).
	steals       int64   // straggler re-dispatches onto another peer
	localPulls   int64   // items the local node pulled as a capacity unit
	shardWallSum float64 // winning-attempt wall seconds, summed
	shardWallN   int64
	queueWaitSum float64 // enqueue→first-claim seconds, summed
	queueWaitN   int64
}

func newMetrics() *metrics {
	return &metrics{peers: make(map[string]*peerStats)}
}

func (m *metrics) peer(name string) *peerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.peers[name]
	if s == nil {
		s = &peerStats{}
		m.peers[name] = s
	}
	return s
}

func (m *metrics) add(name string, f func(*peerStats)) {
	s := m.peer(name)
	m.mu.Lock()
	f(s)
	m.mu.Unlock()
}

// bump mutates the queue-level counters under the lock.
func (m *metrics) bump(f func(*metrics)) {
	m.mu.Lock()
	f(m)
	m.mu.Unlock()
}

// PeerSnapshot is one peer's counters at a point in time.
type PeerSnapshot struct {
	Peer      string
	Attempts  int64
	Retries   int64
	Successes int64
	Failures  int64
	Overloads int64
	Breaker   string
	// EwmaMS is the peer's EWMA latency estimate in milliseconds
	// (0 until the first successful attempt); Inflight is the number
	// of attempts currently running on it.
	EwmaMS   float64
	Inflight int64
}

// Snapshot is a point-in-time view of a dispatcher's activity.
type Snapshot struct {
	Peers     []PeerSnapshot
	Fallbacks int64
	// Work-queue activity (RunQueue).
	Steals         int64
	LocalPulls     int64
	ShardWallSum   float64 // seconds
	ShardWallCount int64
	QueueWaitSum   float64 // seconds
	QueueWaitCount int64
}

// Snapshot returns the dispatcher's counters and breaker states,
// peers sorted by name so the output is deterministic.
func (d *Dispatcher) Snapshot() Snapshot {
	d.metrics.mu.Lock()
	names := make([]string, 0, len(d.metrics.peers))
	for n := range d.metrics.peers {
		names = append(names, n)
	}
	d.metrics.mu.Unlock()
	// Configured peers appear even before their first dispatch.
	for _, p := range d.cfg.Peers {
		found := false
		for _, n := range names {
			if n == p {
				found = true
				break
			}
		}
		if !found {
			names = append(names, p)
		}
	}
	sort.Strings(names)
	snap := Snapshot{Peers: make([]PeerSnapshot, 0, len(names))}
	for _, n := range names {
		s := d.metrics.peer(n)
		br := d.breaker(n)
		d.metrics.mu.Lock()
		ps := PeerSnapshot{
			Peer:      n,
			Attempts:  s.attempts,
			Retries:   s.retries,
			Successes: s.successes,
			Failures:  s.failures,
			Overloads: s.overloads,
			Breaker:   br.State().String(),
		}
		d.metrics.mu.Unlock()
		ps.EwmaMS, ps.Inflight = d.tracker.snapshot(n)
		snap.Peers = append(snap.Peers, ps)
	}
	d.metrics.mu.Lock()
	snap.Fallbacks = d.metrics.fallbacks
	snap.Steals = d.metrics.steals
	snap.LocalPulls = d.metrics.localPulls
	snap.ShardWallSum = d.metrics.shardWallSum
	snap.ShardWallCount = d.metrics.shardWallN
	snap.QueueWaitSum = d.metrics.queueWaitSum
	snap.QueueWaitCount = d.metrics.queueWaitN
	d.metrics.mu.Unlock()
	return snap
}
