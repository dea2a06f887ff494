package symexec

import (
	"fmt"
	"sort"
	"sync"

	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/solver"
	"revnic/internal/trace"
)

// This file implements the fork-join parallel exploration mode: once
// a phase's serial spread has grown the live set to Config.Shards
// independent state groups, each group is explored to completion by a
// worker child engine (its own collector, solver, counters and
// registry snapshots), and the results are merged back in seed
// order. The decomposition depends only on Config.Shards and the
// deterministic spread — never on Config.Workers, which sets the
// goroutine count alone — so traces, coverage and synthesized code
// are bit-identical for every Workers value, including the fully
// serial Workers=1 run.

// phaseBudgets carries the remaining exploration allowances of one
// phase across the serial spread and the per-shard explorations.
type phaseBudgets struct {
	// blocks is the translation-block budget left in the phase.
	blocks int64
	// stagnation ends exploration after this many blocks without new
	// coverage.
	stagnation int64
	// successes is how many successful completions trigger the
	// remaining-path discard of §3.2.
	successes int
	// maxStates caps the live set.
	maxStates int
}

// minShardStagnation keeps a shard's stagnation allowance from
// rounding down to a value too small to escape a cold start.
const minShardStagnation = 5000

// split divides the phase's remaining allowances evenly among n
// shards, with floors so every shard can make progress.
func (b phaseBudgets) split(n int) phaseBudgets {
	per := phaseBudgets{
		blocks:     b.blocks / int64(n),
		stagnation: b.stagnation / int64(n),
		successes:  (b.successes + n - 1) / n,
		maxStates:  b.maxStates / n,
	}
	if per.blocks < 0 {
		per.blocks = 0
	}
	if per.stagnation < minShardStagnation {
		per.stagnation = minShardStagnation
	}
	if per.successes < 1 {
		per.successes = 1
	}
	if per.maxStates < 32 {
		per.maxStates = 32
	}
	return per
}

// exploreShards partitions the live set into up to Config.Shards
// groups, explores each on a worker child engine (at most
// Config.Workers goroutines run concurrently), and merges the
// children back in seed order. The partition orders states by their
// creation ID, so it is a pure function of the spread, not of the
// worker count or scheduling. With Config.ShardRunner set, the groups
// are serialized into ShardTasks and dispatched through the runner
// instead — remote execution, with the in-process path as its
// guaranteed local fallback — and the decoded results merge in the
// same seed order, so the outcome is bit-identical either way.
func (e *Engine) exploreShards(live []*State, name, successName string, bdg phaseBudgets, success successFn) ([]*State, error) {
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	n := e.cfg.fanoutTarget()
	if n > len(live) {
		n = len(live)
	}
	e.noteFanout(n)
	groups := make([][]*State, n)
	for i, s := range live {
		groups[i%n] = append(groups[i%n], s)
	}
	per := bdg.split(n)
	if e.cfg.ShardRunner != nil {
		return e.exploreShardsVia(e.cfg.ShardRunner, groups, name, successName, per)
	}

	// Children are created serially so jobSeq (and with it symbol
	// namespaces and state-ID ranges) advances deterministically.
	children := make([]*Engine, n)
	for i := range children {
		children[i] = e.child(i)
	}

	completedByShard := make([][]*State, n)
	errs := make([]error, n)
	workers := e.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for idx := 0; idx < n; idx++ {
			completedByShard[idx], _, _, errs[idx] =
				children[idx].exploreSet(groups[idx], name, per, success, 0)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		// A panic inside a worker goroutine cannot unwind past the
		// goroutine boundary, so callers' recovers (the revnicd job
		// runner's in particular) would never see it and the whole
		// process would die. Convert it to a per-shard error instead.
		runShard := func(idx int) {
			defer func() {
				if r := recover(); r != nil {
					errs[idx] = fmt.Errorf("symexec: shard %d worker panic: %v", idx, r)
				}
			}()
			completedByShard[idx], _, _, errs[idx] =
				children[idx].exploreSet(groups[idx], name, per, success, 0)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for idx := range jobs {
					runShard(idx)
				}
			}()
		}
		for idx := 0; idx < n; idx++ {
			jobs <- idx
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Join: fold the children back in seed order; concatenating the
	// per-shard completion lists in the same order keeps the
	// pickSeed RNG consumption identical across worker counts.
	var completed []*State
	for i := 0; i < n; i++ {
		e.applyOutcome(childOutcome(children[i]))
		completed = append(completed, completedByShard[i]...)
	}
	// Skip past every child's reserved ID range (child i allocates
	// upward from stateID + (i+1)*jobIDSpan), so parent IDs minted
	// after the join stay unique.
	e.stateID += (n + 1) * jobIDSpan
	return completed, nil
}

// exploreShardsVia is the dispatched form of the fan-out: each group
// becomes a self-contained ShardTask (built serially, so jobSeq and
// the reserved state-ID ranges advance exactly as the in-process path
// does), the phase's tasks are handed to the runner as one batch, and
// the results are decoded and merged in seed order — regardless of
// where or how often each shard executed.
func (e *Engine) exploreShardsVia(runner ShardRunner, groups [][]*State, name, successName string, per phaseBudgets) ([]*State, error) {
	n := len(groups)
	tasks := make([]*ShardTask, n)
	for i := range groups {
		e.jobSeq++
		tasks[i] = &ShardTask{
			Phase:       name,
			Index:       i,
			Seq:         e.jobSeq,
			StateIDBase: e.stateID + (i+1)*jobIDSpan,
			Success:     successName,
			Budget: ShardBudget{
				Blocks:     per.blocks,
				Stagnation: per.stagnation,
				Successes:  per.successes,
				MaxStates:  per.maxStates,
			},
			Entries: e.entries,
			Timer:   e.timer,
			DMA:     e.dma.Regions(),
			Group:   encodeStateGroup(groups[i]),
		}
	}
	results, err := runner.RunShards(tasks, e.executeShardLocal)
	if err != nil {
		return nil, fmt.Errorf("symexec: shard queue (%s): %w", name, err)
	}
	if len(results) != n {
		return nil, fmt.Errorf("symexec: shard queue (%s): %d results for %d tasks", name, len(results), n)
	}
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("symexec: shard %d (%s): runner returned no result", i, name)
		}
	}
	var completed []*State
	for i := 0; i < n; i++ {
		o, states, err := e.decodeShardResult(results[i])
		if err != nil {
			return nil, fmt.Errorf("symexec: shard %d (%s): %w", i, name, err)
		}
		e.applyOutcome(o)
		completed = append(completed, states...)
	}
	e.stateID += (n + 1) * jobIDSpan
	return completed, nil
}

// noteFanout records one fan-out event's achieved width for the
// shards_effective stat: the narrowest width over the run is the
// bottleneck a capacity planner cares about.
func (e *Engine) noteFanout(n int) {
	if e.shardsEff == 0 || n < e.shardsEff {
		e.shardsEff = n
	}
}

// shardOutcome is everything one explored shard feeds into the join,
// in a form common to the in-process path (childOutcome) and the
// dispatched path (decodeShardResult) — one merge implementation,
// however the shard was executed.
type shardOutcome struct {
	discov    []covDiscovery
	exec      int64
	forks     int64
	killed    int64
	queries   int64
	hits      int64
	modelHits int64
	search    solver.SearchStats
	col       *trace.Collector
	dma       hw.DMARegistry
	entries   guestos.EntryPoints
	timer     uint32
	stopped   TermReason
}

// searchStats is the SAT-level work of e's own solver plus that of
// every child merged so far.
func (e *Engine) searchStats() solver.SearchStats {
	st := e.sol.Search()
	st.Add(e.childSearch)
	return st
}

// childOutcome extracts the mergeable outcome of an in-process worker
// child engine.
func childOutcome(c *Engine) *shardOutcome {
	q, h := c.sol.Stats()
	return &shardOutcome{
		discov:    c.discov,
		exec:      c.exec,
		forks:     c.forks,
		killed:    c.killed,
		queries:   q + c.childQueries,
		hits:      h + c.childHits,
		modelHits: c.sol.ModelHits() + c.childModelHits,
		search:    c.searchStats(),
		col:       c.col,
		dma:       c.dma,
		entries:   c.entries,
		timer:     c.timer,
		stopped:   c.stopHit,
	}
}

// applyOutcome folds one shard outcome back into the parent: coverage
// discoveries are replayed (keeping only globally new blocks) to
// extend the parent's coverage curve, counters are summed, and the
// collector, DMA registry, entry points and timer handler are merged.
// Merge order is the caller's responsibility; calling in seed order
// makes the join deterministic.
func (e *Engine) applyOutcome(o *shardOutcome) {
	covered := make(map[uint32]bool, len(e.col.Blocks))
	for a := range e.col.Blocks {
		covered[a] = true
	}
	for _, d := range o.discov {
		if !covered[d.addr] {
			covered[d.addr] = true
			e.coverage = append(e.coverage, CoveragePoint{e.exec + d.exec, len(covered)})
		}
	}
	e.exec += o.exec
	e.forks += o.forks
	e.killed += o.killed
	e.childQueries += o.queries
	e.childHits += o.hits
	e.childModelHits += o.modelHits
	e.childSearch.Add(o.search)
	e.col.Merge(o.col)
	e.dma.Merge(&o.dma)
	if !e.entries.Registered() && o.entries.Registered() {
		e.entries = o.entries
	}
	if e.timer == 0 {
		e.timer = o.timer
	}
	if e.stopHit == TermRunning && o.stopped != TermRunning {
		// A stop observed inside a worker is a stop of the whole run;
		// latch it so Result.Stopped is set even when the parent's own
		// loop never polled after the fan-out.
		e.stopHit = o.stopped
	}
	e.lastCov = e.col.CoveredBlocks()
}
