package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// echoHandler is the healthy-path peer: it answers with a JSON object
// naming the serving peer and echoing the payload length.
func echoHandler(_ context.Context, peer string, body []byte) (*Response, error) {
	b, _ := json.Marshal(map[string]any{"peer": peer, "len": len(body)})
	return &Response{Status: 200, Body: b}, nil
}

// acceptJSON validates a body the way revnicd does: a full unmarshal,
// so truncated bodies are rejected.
func acceptJSON(b []byte) error {
	var v map[string]any
	return json.Unmarshal(b, &v)
}

func testDispatcher(ft *FaultTransport, peers []string, tweak func(*Config)) *Dispatcher {
	cfg := Config{
		Peers:          peers,
		Transport:      ft,
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		BackoffCap:     4 * time.Millisecond,
		Seed:           42,
		Breaker:        BreakerConfig{Window: 10, MinSamples: 100}, // effectively disabled unless test lowers it
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return NewDispatcher(cfg)
}

func peerTotals(s Snapshot) (attempts, retries, failures, overloads int64) {
	for _, p := range s.Peers {
		attempts += p.Attempts
		retries += p.Retries
		failures += p.Failures
		overloads += p.Overloads
	}
	return
}

// runSlowLocal runs n queue items whose local execution takes long
// enough that the local capacity slot holds at most one item while the
// peers work through the rest, so retries stay on the peers.
func runSlowLocal(t *testing.T, d *Dispatcher, n int) [][]byte {
	t.Helper()
	bodies, err := d.RunQueue(context.Background(), queueItemsWork(n, 100*time.Millisecond, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bodies {
		if err := acceptJSON(b); err != nil {
			t.Fatalf("body %d is not valid JSON: %v", i, err)
		}
	}
	return bodies
}

func TestDispatcherRetriesDropThenSucceeds(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	for _, p := range []string{"p1", "p2"} {
		ft.Script(p, Fault{Drop: true}, Fault{Drop: true})
	}
	// Four drops cannot exhaust one item's five attempts, so every item
	// must settle without the exhausted-item local fallback.
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.MaxAttempts = 5
		c.StealInterval = time.Millisecond
	})
	runSlowLocal(t, d, 6)
	s := d.Snapshot()
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0: retries could succeed", s.Fallbacks)
	}
	_, retries, failures, _ := peerTotals(s)
	if retries < 1 || failures < 1 {
		t.Fatalf("retries=%d failures=%d, want both >= 1", retries, failures)
	}
}

func TestDispatcherTornBodyRetried(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	for _, p := range []string{"p1", "p2"} {
		ft.Script(p, Fault{Torn: true}, Fault{Torn: true})
	}
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.MaxAttempts = 5
		c.StealInterval = time.Millisecond
	})
	// runSlowLocal checks every returned body passes Accept: a torn body
	// must never be returned, only retried.
	runSlowLocal(t, d, 6)
	s := d.Snapshot()
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0: retries could succeed", s.Fallbacks)
	}
	_, retries, failures, _ := peerTotals(s)
	if retries < 1 || failures < 1 {
		t.Fatalf("retries=%d failures=%d, want both >= 1 (torn bodies rejected by Accept)", retries, failures)
	}
}

func TestDispatcherOverloadIsNotBreakerFailure(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	// Enough 503s to trip the breaker if they counted as failures.
	for _, p := range []string{"p1", "p2"} {
		for i := 0; i < 2; i++ {
			ft.Script(p, Fault{Status: 503, RetryAfter: time.Millisecond})
		}
	}
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.Breaker = BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5}
		c.MaxAttempts = 5
		c.StealInterval = time.Millisecond
	})
	runSlowLocal(t, d, 6)
	s := d.Snapshot()
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0: peers would recover", s.Fallbacks)
	}
	_, _, failures, overloads := peerTotals(s)
	if overloads < 1 {
		t.Fatalf("overloads = %d, want >= 1", overloads)
	}
	if failures != 0 {
		t.Fatalf("failures = %d, want 0 (503 must not count)", failures)
	}
	for _, p := range s.Peers {
		if p.Breaker != "closed" {
			t.Fatalf("peer %s breaker %s after 503s, want closed", p.Peer, p.Breaker)
		}
	}
}

func TestDispatcherBreakerSkipsDeadPeer(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	ft.Kill("p1")
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.Breaker = BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Hour}
		c.MaxAttempts = 2
	})
	// Run queues until p1's breaker opens; from then on no further
	// sends may reach it.
	for i := 0; i < 20 && d.breaker("p1").State() != BreakerOpen; i++ {
		runSlowLocal(t, d, 4)
	}
	if st := d.breaker("p1").State(); st != BreakerOpen {
		t.Fatalf("p1 breaker %v after repeated failures, want open", st)
	}
	tripped := ft.Sends("p1")
	runSlowLocal(t, d, 4)
	if after := ft.Sends("p1"); after != tripped {
		t.Fatalf("open breaker let %d more sends through to dead peer", after-tripped)
	}
}

func TestProberReclosesRecoveredPeer(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	ft.Kill("p1")
	d := testDispatcher(ft, []string{"p1"}, func(c *Config) {
		c.Breaker = BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Millisecond}
	})
	// Trip the breaker through failed remote attempts.
	for i := 0; i < 20 && d.breaker("p1").State() == BreakerClosed; i++ {
		runSlowLocal(t, d, 4)
	}
	if st := d.breaker("p1").State(); st == BreakerClosed {
		t.Fatal("breaker still closed after dispatches to a dead peer")
	}
	// Peer comes back; the prober's successful probe is the half-open
	// trial that recloses the breaker.
	ft.mu.Lock()
	ft.dead["p1"] = false
	ft.mu.Unlock()
	stop := d.StartProber(2 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.breaker("p1").State() == BreakerClosed {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("breaker never reclosed; state %v", d.breaker("p1").State())
}

// TestFaultTransportSendHonorsContext forwards through a fault
// transport to a peer that never answers: cancelling Send's context
// must end the forwarded request, and Send must return within 1 s.
func TestFaultTransportSendHonorsContext(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer ts.Close()
	defer close(release)
	ht := &HTTPTransport{Path: "/shards"}
	ft := NewFaultTransport(ht.Send)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := ft.Send(ctx, ts.URL, []byte("{}"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a cancelled Send returned no error")
		}
	case <-time.After(time.Second):
		t.Fatal("Send still waits for the peer 1 s after its context was cancelled")
	}
}
