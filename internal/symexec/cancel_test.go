package symexec

import (
	"context"
	"testing"
	"time"
)

// longConfig is an exploration that would run effectively forever:
// every budget is huge, so only a cancelled context or its deadline
// ends it.
func longConfig() Config {
	return Config{
		PhaseBudget:      1 << 30,
		StagnationBudget: 1 << 30,
		CompleteTarget:   1 << 30,
		MaxStates:        1 << 20,
	}
}

// TestDeadlineStopsExploration pins the wind-down latency contract: a
// run whose budgets would sustain it for hours must notice an expired
// deadline and return a well-formed partial result within 2 seconds.
func TestDeadlineStopsExploration(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	cfg := longConfig()
	cfg.Context = ctx
	start := time.Now()
	res := exploreDriver(t, "RTL8029", cfg)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("deadline wind-down took %s, want < 2s", elapsed)
	}
	if res.Stopped != TermDeadline {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, TermDeadline)
	}
	if res.Collector == nil {
		t.Fatal("partial result has no collector")
	}
}

// TestCancelStopsExploration cancels the context mid-run and
// requires the same bounded wind-down with TermCancelled.
func TestCancelStopsExploration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := longConfig()
	cfg.Context = ctx
	time.AfterFunc(250*time.Millisecond, cancel)
	start := time.Now()
	res := exploreDriver(t, "RTL8029", cfg)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("cancel wind-down took %s, want < 2s", elapsed)
	}
	if res.Stopped != TermCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, TermCancelled)
	}
	if res.Collector == nil {
		t.Fatal("partial result has no collector")
	}
}

// TestPreCancelledExplore starts with the context already cancelled:
// Explore must return immediately with an empty-but-well-formed
// result, not an error.
func TestPreCancelledExplore(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Context: ctx}
	start := time.Now()
	res := exploreDriver(t, "RTL8029", cfg)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled Explore took %s", elapsed)
	}
	if res.Stopped != TermCancelled {
		t.Fatalf("Stopped = %v, want %v", res.Stopped, TermCancelled)
	}
	if res.Collector == nil {
		t.Fatal("result has no collector")
	}
}

// TestStopPlumbingPreservesDeterminism is the no-observer-effect
// check: a run with an armed-but-never-fired context carrying a far
// deadline must be bit-identical to a run with no context at all.
// The cancellation hooks are pure reads until they fire.
func TestStopPlumbingPreservesDeterminism(t *testing.T) {
	plain := exploreDriver(t, "RTL8029", Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	armed := exploreDriver(t, "RTL8029", Config{Workers: 2, Context: ctx})
	if armed.Stopped != TermRunning {
		t.Fatalf("armed run reported Stopped = %v", armed.Stopped)
	}
	if traceFingerprint(plain) != traceFingerprint(armed) {
		t.Fatal("armed stop plumbing perturbed the exploration result")
	}
}
