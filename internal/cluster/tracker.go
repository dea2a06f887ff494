package cluster

import (
	"sync"
	"time"
)

// ewmaAlpha is the smoothing factor of the per-peer latency EWMA: new
// samples carry 30% weight, so a few fast shards on a recovering peer
// move its estimate quickly without one outlier rewriting it.
const ewmaAlpha = 0.3

// peerLoad is one peer's live capacity estimate: an EWMA of observed
// successful-attempt latency plus the number of attempts in flight.
type peerLoad struct {
	ewmaMS   float64
	samples  int64
	inflight int64
}

// tracker maintains per-peer load estimates for the work-stealing
// threshold and the metrics export. Latency samples come from
// successful attempts only — failures and timeouts feed the circuit
// breakers, which gate selection separately, and a cancelled attempt's
// partial duration estimates nothing.
type tracker struct {
	mu    sync.Mutex
	peers map[string]*peerLoad
}

func newTracker() *tracker {
	return &tracker{peers: make(map[string]*peerLoad)}
}

func (t *tracker) load(peer string) *peerLoad {
	l := t.peers[peer]
	if l == nil {
		l = &peerLoad{}
		t.peers[peer] = l
	}
	return l
}

// start records an attempt going in flight on peer.
func (t *tracker) start(peer string) {
	t.mu.Lock()
	t.load(peer).inflight++
	t.mu.Unlock()
}

// finish records an attempt leaving flight; a successful attempt's
// duration becomes a latency sample.
func (t *tracker) finish(peer string, d time.Duration, success bool) {
	t.mu.Lock()
	l := t.load(peer)
	if l.inflight > 0 {
		l.inflight--
	}
	if success {
		ms := float64(d.Microseconds()) / 1000
		if l.samples == 0 {
			l.ewmaMS = ms
		} else {
			l.ewmaMS = ewmaAlpha*ms + (1-ewmaAlpha)*l.ewmaMS
		}
		l.samples++
	}
	t.mu.Unlock()
}

// ewma returns the peer's latency estimate in milliseconds and whether
// any samples back it.
func (t *tracker) ewma(peer string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.peers[peer]
	if l == nil || l.samples == 0 {
		return 0, false
	}
	return l.ewmaMS, true
}

// bestEwma is the fastest sampled peer's latency estimate — what a
// well-placed shard should cost. The steal threshold derives from it:
// a shard in flight for several multiples of bestEwma is a straggler
// no matter whose queue it sits in.
func (t *tracker) bestEwma() (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	best, ok := 0.0, false
	for _, l := range t.peers {
		if l.samples == 0 {
			continue
		}
		if !ok || l.ewmaMS < best {
			best, ok = l.ewmaMS, true
		}
	}
	return best, ok
}

// snapshot returns the peer's estimate for metrics export.
func (t *tracker) snapshot(peer string) (ewmaMS float64, inflight int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.peers[peer]
	if l == nil {
		return 0, 0
	}
	return l.ewmaMS, l.inflight
}
