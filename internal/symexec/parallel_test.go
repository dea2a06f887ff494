package symexec

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/isa"
	"revnic/internal/trace"
)

// traceFingerprint renders everything downstream consumers read from
// an exploration result into one canonical string, so two results are
// bit-identical iff their fingerprints match.
func traceFingerprint(res *Result) string {
	var sb strings.Builder
	c := res.Collector
	fmt.Fprintf(&sb, "entries=%+v exec=%d forks=%d killed=%d init-failed=%v\n",
		res.Entries, res.ExecutedBlocks, res.ForkCount, res.KilledLoops, res.InitFailed)
	for _, pt := range res.Coverage {
		fmt.Fprintf(&sb, "cov %d %d\n", pt.ExecutedBlocks, pt.CoveredBlocks)
	}
	for _, r := range res.DMARegions {
		fmt.Fprintf(&sb, "dma %#x+%#x\n", r[0], r[1])
	}
	for _, a := range c.SortedBlockAddrs() {
		bi := c.Blocks[a]
		fmt.Fprintf(&sb, "block %#x count=%d os=%v in=%v out=%v\n",
			a, bi.Count, bi.TouchesOS, bi.RegsInSample, bi.RegsOutSample)
		for _, io := range bi.IO {
			fmt.Fprintf(&sb, "  io %+v\n", io)
		}
	}
	edges := make([]trace.Edge, 0, len(c.Edges))
	for e := range c.Edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
	for _, e := range edges {
		fmt.Fprintf(&sb, "edge %#x->%#x k=%d n=%d\n", e.From, e.To, e.Kind, c.Edges[e])
	}
	for _, call := range c.APICalls {
		fmt.Fprintf(&sb, "api %+v\n", call)
	}
	for _, m := range []map[uint32]bool{c.AsyncEntries, c.FuncReturns} {
		addrs := make([]uint32, 0, len(m))
		for a := range m {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		fmt.Fprintf(&sb, "set %v\n", addrs)
	}
	params := make([]uint32, 0, len(c.FuncParams))
	for fn := range c.FuncParams {
		params = append(params, fn)
	}
	sort.Slice(params, func(i, j int) bool { return params[i] < params[j] })
	for _, fn := range params {
		fmt.Fprintf(&sb, "params %#x=%d\n", fn, c.FuncParams[fn])
	}
	return sb.String()
}

// solverCounts renders the deterministic solver counters of a result:
// queries, cache and model hits, and the SAT-level work behind them.
// They are kept out of traceFingerprint so tests can report a trace
// mismatch apart from a solver-work mismatch.
func solverCounts(res *Result) string {
	return fmt.Sprintf("queries=%d hits=%d model-hits=%d search=%+v",
		res.SolverQueries, res.SolverCacheHits, res.SolverModelHits, res.SolverSearch)
}

// TestParallelDeterminism is the regression test for the fork-join
// mode's core guarantee, now quantified over every searcher: for a
// fixed Config.Shards, the traces and coverage produced with 1 worker
// and with N workers are identical — Workers sets concurrency, never
// the result, regardless of the path-selection strategy. The solver
// counters, down to SAT decisions and conflicts, repeat exactly too.
// Run it under `go test -race` to also exercise the shared translation
// cache, the expression intern table and COW page sharing across
// worker goroutines.
func TestParallelDeterminism(t *testing.T) {
	for _, name := range []string{"coverage", "dfs", "bfs"} {
		t.Run(name, func(t *testing.T) {
			factory, err := SearcherByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var want, wantCounts string
			for _, workers := range []int{1, 2, 4} {
				res := exploreDriver(t, "RTL8029", Config{Workers: workers, Searcher: factory})
				got, counts := traceFingerprint(res), solverCounts(res)
				if workers == 1 {
					want, wantCounts = got, counts
					if res.SolverSearch.Decisions == 0 {
						t.Fatal("no SAT decisions counted")
					}
					continue
				}
				if got != want {
					t.Fatalf("workers=%d diverged from workers=1 (fingerprints differ: %d vs %d bytes)",
						workers, len(got), len(want))
				}
				if counts != wantCounts {
					t.Fatalf("workers=%d solver counters diverged:\n got %s\nwant %s", workers, counts, wantCounts)
				}
			}
			if want == "" {
				t.Fatal("no baseline recorded")
			}
		})
	}
}

// TestParallelDeterminismAcrossRuns re-runs the same parallel
// configuration twice: scheduling differences between runs must not
// leak into the result either.
func TestParallelDeterminismAcrossRuns(t *testing.T) {
	a := exploreDriver(t, "RTL8139", Config{Workers: 3})
	b := exploreDriver(t, "RTL8139", Config{Workers: 3})
	if traceFingerprint(a) != traceFingerprint(b) {
		t.Fatal("two identical parallel runs diverged")
	}
}

// TestShardsOneMatchesSerialSchedule pins the contract that Shards=1
// disables fan-out: the phase never spreads, so the exploration is
// the fully serial schedule regardless of Workers.
func TestShardsOneMatchesSerialSchedule(t *testing.T) {
	a := exploreDriver(t, "RTL8029", Config{Shards: 1, Workers: 1})
	b := exploreDriver(t, "RTL8029", Config{Shards: 1, Workers: 8})
	if traceFingerprint(a) != traceFingerprint(b) {
		t.Fatal("Shards=1 runs diverged across worker counts")
	}
	if !a.Entries.Registered() || a.Collector.CoveredBlocks() < 60 {
		t.Fatalf("serial schedule exploration degraded: %d blocks", a.Collector.CoveredBlocks())
	}
}

// TestShardPanicBecomesError pins the pool's panic conversion: a
// searcher that panics inside one shard makes Explore return a shard
// error instead of crashing the process, at one worker as at two.
func TestShardPanicBecomesError(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			var root BlockCounts
			var fired atomic.Bool
			cfg := Config{Workers: workers}
			cfg.Searcher = func(c BlockCounts) Searcher {
				// Only a shard engine's collector differs from the
				// root's; panic in the first shard to start.
				if c != root && fired.CompareAndSwap(false, true) {
					panic("searcher boom")
				}
				return NewCoverageGuided(c)
			}
			e := New(info.Program, cfg)
			root = e.col
			_, err := e.Explore()
			if err == nil || !regexp.MustCompile(`shard \d+ panic: searcher boom`).MatchString(err.Error()) {
				t.Fatalf("Explore error %v, want a shard panic", err)
			}
		})
	}
}

// TestPickSeedLowestID pins the canonical pick: the eligible state
// with the lowest ID, whatever order the states completed in.
func TestPickSeedLowestID(t *testing.T) {
	e := New(&isa.Program{Base: 0x1000, Code: make([]byte, 4)}, Config{})
	one := e.ar.C(1, 32)
	mk := func(id int, result *expr.Expr) *State { return &State{ID: id, Result: result} }
	states := []*State{mk(9, one), mk(2, nil), mk(5, e.ar.C(0, 32)), mk(7, one), mk(4, one)}
	nonZeroConst := func(e *Engine, s *State) bool { v, _ := s.Result.IsConst(); return v != 0 }
	// Every rotation of the list, forwards and backwards.
	for i := 0; i < 2*len(states); i++ {
		order := append(append([]*State{}, states[i%len(states):]...), states[:i%len(states)]...)
		if i >= len(states) {
			slices.Reverse(order)
		}
		if got := e.pickSeed(order, anyResult); got.ID != 4 {
			t.Fatalf("order %d: anyResult picked %d, want 4", i, got.ID)
		}
		if got := e.pickSeed(order, nonZeroConst); got.ID != 4 {
			t.Fatalf("order %d: nonzero picked %d, want 4", i, got.ID)
		}
	}
	if got := e.pickSeed(states[:0], anyResult); got != nil {
		t.Fatalf("empty set picked %d", got.ID)
	}
}

// TestSeedIgnored pins that Config.Seed is accepted and ignored: the
// engine seeds the benchmark draws (1-3) and an outlier give the same
// traces, coverage and counters.
func TestSeedIgnored(t *testing.T) {
	want := exploreDriver(t, "RTL8139", Config{Seed: 1})
	for _, seed := range []int64{2, 3, 99} {
		got := exploreDriver(t, "RTL8139", Config{Seed: seed})
		if traceFingerprint(got) != traceFingerprint(want) {
			t.Fatalf("seed %d changed the traces", seed)
		}
		if a, b := solverCounts(got), solverCounts(want); a != b {
			t.Fatalf("seed %d changed the solver counters:\n got %s\nwant %s", seed, a, b)
		}
		if got.TranslatedBlocks != want.TranslatedBlocks || got.ShardsEffective != want.ShardsEffective ||
			got.ShardCollapses != want.ShardCollapses {
			t.Fatalf("seed %d changed the shard or translation counters", seed)
		}
	}
}
