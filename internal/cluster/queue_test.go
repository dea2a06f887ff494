package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// queueItems builds n echo-style items whose local closure returns a
// distinguishable body; onDone counts settles per key.
func queueItems(n int, done *atomic.Int64, perKey map[string]*atomic.Int64) []QueueItem {
	return queueItemsWork(n, 0, done, perKey)
}

// queueItemsWork is queueItems with a simulated local execution cost,
// so tests can model shards that take real time (instant local
// execution lets one fast worker drain a queue before the scheduling
// behavior under test ever engages).
func queueItemsWork(n int, localCost time.Duration, done *atomic.Int64, perKey map[string]*atomic.Int64) []QueueItem {
	items := make([]QueueItem, n)
	for i := range items {
		key := fmt.Sprintf("item-%d", i)
		var kc *atomic.Int64
		if perKey != nil {
			kc = &atomic.Int64{}
			perKey[key] = kc
		}
		items[i] = QueueItem{
			Key:     key,
			Payload: []byte(key),
			Accept:  acceptJSON,
			Local: func() ([]byte, error) {
				if localCost > 0 {
					time.Sleep(localCost)
				}
				b, _ := json.Marshal(map[string]any{"peer": "local", "len": len(key)})
				return b, nil
			},
			OnDone: func([]byte) {
				if done != nil {
					done.Add(1)
				}
				if kc != nil {
					kc.Add(1)
				}
			},
		}
	}
	return items
}

func TestRunQueueHealthy(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	d := testDispatcher(ft, []string{"p1", "p2"}, nil)
	var done atomic.Int64
	bodies, err := d.RunQueue(context.Background(), queueItems(8, &done, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 8 {
		t.Fatalf("got %d bodies, want 8", len(bodies))
	}
	for i, b := range bodies {
		if len(b) == 0 {
			t.Fatalf("body %d empty", i)
		}
	}
	if got := done.Load(); got != 8 {
		t.Fatalf("OnDone ran %d times, want 8", got)
	}
	s := d.Snapshot()
	if s.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 on healthy path", s.Fallbacks)
	}
	if s.QueueWaitCount != 8 || s.ShardWallCount != 8 {
		t.Fatalf("wait/wall counts = %d/%d, want 8/8", s.QueueWaitCount, s.ShardWallCount)
	}
}

func TestRunQueueNoPeersRunsLocally(t *testing.T) {
	d := NewDispatcher(Config{Seed: 42})
	var done atomic.Int64
	bodies, err := d.RunQueue(context.Background(), queueItems(6, &done, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 6 || done.Load() != 6 {
		t.Fatalf("bodies=%d done=%d, want 6/6", len(bodies), done.Load())
	}
	for _, b := range bodies {
		if string(b) == "" || !jsonPeerIs(b, "local") {
			t.Fatalf("expected local execution, got %s", b)
		}
	}
}

func jsonPeerIs(b []byte, peer string) bool {
	var v map[string]any
	if json.Unmarshal(b, &v) != nil {
		return false
	}
	p, _ := v["peer"].(string)
	return p == peer
}

func TestRunQueueAllPeersDownFallsBackLocal(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	ft.Kill("p1")
	ft.Kill("p2")
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.MaxAttempts = 2
	})
	var done atomic.Int64
	bodies, err := d.RunQueue(context.Background(), queueItems(4, &done, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bodies {
		if !jsonPeerIs(b, "local") {
			t.Fatalf("body %d not from local fallback: %s", i, b)
		}
	}
	if done.Load() != 4 {
		t.Fatalf("OnDone ran %d times, want 4", done.Load())
	}
	// Every item ran locally — either pulled by the local capacity
	// slot or drained after remote attempts exhausted.
	if s := d.Snapshot(); s.Fallbacks+s.LocalPulls != 4 {
		t.Fatalf("fallbacks+localPulls = %d+%d, want 4 local executions",
			s.Fallbacks, s.LocalPulls)
	}
}

func TestRunQueueStealsFromStraggler(t *testing.T) {
	ft := NewFaultTransport(echoHandler)
	// p1 models a healthy peer doing ~10ms of work per shard, p2 a
	// straggler holding every request for two seconds; local execution
	// costs 10ms too. With items outnumbering slots, p2's slots claim
	// work at startup — and with the steal floor at 50ms those items
	// are re-dispatched to p1 long before p2 answers.
	ft.SetLatency("p1", 10*time.Millisecond)
	ft.SetLatency("p2", 2*time.Second)
	d := testDispatcher(ft, []string{"p1", "p2"}, func(c *Config) {
		c.StealAfterMin = 50 * time.Millisecond
		c.StealInterval = 5 * time.Millisecond
		c.AttemptTimeout = 5 * time.Second
	})
	var done atomic.Int64
	start := time.Now()
	bodies, err := d.RunQueue(context.Background(), queueItemsWork(10, 10*time.Millisecond, &done, nil))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(bodies) != 10 || done.Load() != 10 {
		t.Fatalf("bodies=%d done=%d, want 10/10", len(bodies), done.Load())
	}
	// Without stealing, p2's two slots would hold items hostage for
	// 2s each; with stealing the whole queue drains in well under a
	// second (steal threshold + one healthy re-execution).
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("queue took %s; stealing did not rescue straggler items", elapsed)
	}
	if p2 := ft.Sends("p2"); p2 == 0 {
		t.Fatal("straggler peer claimed no items; scenario did not engage")
	}
	if s := d.Snapshot(); s.Steals == 0 {
		t.Fatal("expected at least one steal from the slow peer")
	}
}

// TestRunQueueAtMostOnceSettle is the steal-race test: with an
// aggressively low steal threshold every item is re-dispatched while
// its first attempt is still in flight, and both attempts race to
// settle. OnDone must still run exactly once per item — that is the
// property revnicd's merge relies on for at-most-once journaling.
// Run under -race this also exercises the queue's locking.
func TestRunQueueAtMostOnceSettle(t *testing.T) {
	ft := NewFaultTransport(func(ctx context.Context, peer string, body []byte) (*Response, error) {
		// Every peer is slow enough to be declared a straggler, so
		// steals (and the local double-threshold rescue) happen
		// constantly and attempts genuinely race.
		time.Sleep(20 * time.Millisecond)
		return echoHandler(ctx, peer, body)
	})
	d := testDispatcher(ft, []string{"p1", "p2", "p3"}, func(c *Config) {
		c.StealAfterMin = time.Millisecond
		c.StealInterval = time.Millisecond
		c.StealMultiple = 0.01
	})
	perKey := make(map[string]*atomic.Int64)
	var done atomic.Int64
	bodies, err := d.RunQueue(context.Background(), queueItemsWork(24, 5*time.Millisecond, &done, perKey))
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 24 {
		t.Fatalf("got %d bodies, want 24", len(bodies))
	}
	for key, c := range perKey {
		if n := c.Load(); n != 1 {
			t.Fatalf("%s settled %d times, want exactly 1", key, n)
		}
	}
	if done.Load() != 24 {
		t.Fatalf("total OnDone = %d, want 24", done.Load())
	}
}

func TestRunQueueLocalErrorFailsQueue(t *testing.T) {
	d := NewDispatcher(Config{Seed: 42})
	items := queueItems(3, nil, nil)
	items[1].Local = func() ([]byte, error) { return nil, fmt.Errorf("boom") }
	_, err := d.RunQueue(context.Background(), items)
	if err == nil {
		t.Fatal("expected queue failure when local execution fails")
	}
}

func TestRunQueueContextCancel(t *testing.T) {
	ft := NewFaultTransport(func(ctx context.Context, peer string, body []byte) (*Response, error) {
		time.Sleep(50 * time.Millisecond)
		return echoHandler(ctx, peer, body)
	})
	d := testDispatcher(ft, []string{"p1"}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	// Local execution costs real time too, so the local capacity slot
	// cannot drain the whole queue before the cancellation lands.
	_, err := d.RunQueue(ctx, queueItemsWork(50, 10*time.Millisecond, nil, nil))
	if err == nil {
		t.Fatal("expected error after context cancellation")
	}
}

func TestRunQueueEmpty(t *testing.T) {
	d := NewDispatcher(Config{})
	bodies, err := d.RunQueue(context.Background(), nil)
	if err != nil || bodies != nil {
		t.Fatalf("empty queue: bodies=%v err=%v", bodies, err)
	}
}
