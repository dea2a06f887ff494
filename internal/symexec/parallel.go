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

// This file implements the fork-join exploration mode: once a phase's
// serial spread has grown the live set to Config.Shards independent
// state groups, each group becomes a ShardTask and is explored to
// completion on a shard engine (its own collector, solver, counters
// and registry snapshots), and the outcomes are merged back in seed
// order. The decomposition depends only on Config.Shards and the
// deterministic spread — never on Config.Workers, which sets the
// goroutine count alone, nor on Config.ShardRunner, which decides
// where a task runs — so traces, coverage and synthesized code are
// bit-identical for every Workers value and dispatch mode.

// minShardStagnation keeps a shard's stagnation allowance from
// rounding down to a value too small to escape a cold start.
const minShardStagnation = 5000

// split divides the phase's remaining allowances evenly among n
// shards, with floors so every shard can make progress.
func (b ShardBudget) split(n int) ShardBudget {
	return ShardBudget{
		Blocks:     max(b.Blocks/int64(n), 0),
		Stagnation: max(b.Stagnation/int64(n), minShardStagnation),
		Successes:  max((b.Successes+n-1)/n, 1),
		MaxStates:  max(b.MaxStates/n, 32),
	}
}

// exploreShards partitions the live set into Config.Shards groups
// (the serial spread hands over at least that many states), explores
// each as one ShardTask, and merges the outcomes in seed order. The
// partition orders states by their creation ID, so it is a pure
// function of the spread. Without a ShardRunner the groups run in
// memory on at most Config.Workers goroutines; with one, each task
// carries its group in wire form and the runner executes it remotely
// or through the local fallback (runShardTask), whose decoded results
// merge exactly like the in-memory outcomes.
func (e *Engine) exploreShards(live []*State, name, successName string, bdg ShardBudget) ([]*State, error) {
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	n := e.cfg.Shards
	e.shardsEff = n
	groups := make([][]*State, n)
	for i, s := range live {
		groups[i%n] = append(groups[i%n], s)
	}
	// Tasks are built serially so jobSeq (and with it symbol
	// namespaces) and the reserved state-ID ranges advance
	// deterministically.
	per := bdg.split(n)
	tasks := make([]*ShardTask, n)
	for i := range tasks {
		e.jobSeq++
		tasks[i] = &ShardTask{
			Phase:       name,
			Index:       i,
			Seq:         e.jobSeq,
			StateIDBase: e.stateID + (i+1)*jobIDSpan,
			Success:     successName,
			Budget:      per,
			Entries:     e.entries,
			Timer:       e.timer,
			DMA:         e.dma.Regions(),
		}
	}

	outcomes := make([]*shardOutcome, n)
	completed := make([][]*State, n)
	if runner := e.cfg.ShardRunner; runner != nil {
		for i, t := range tasks {
			t.Group = encodeStateGroup(groups[i])
		}
		results, err := runner.RunShards(tasks, e.runShardTask)
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
			if outcomes[i], completed[i], err = e.decodeShardResult(r); err != nil {
				return nil, fmt.Errorf("symexec: shard %d (%s): %w", i, name, err)
			}
		}
	} else {
		err := runPool(n, e.cfg.Workers, func(i int) (err error) {
			outcomes[i], completed[i], err = e.exploreShard(tasks[i], groups[i])
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	var all []*State
	for i := range outcomes {
		e.applyOutcome(outcomes[i])
		all = append(all, completed[i]...)
	}
	// Skip past every shard's reserved ID range (shard i allocates
	// upward from stateID + (i+1)*jobIDSpan), so parent IDs minted
	// after the join stay unique.
	e.stateID += (n + 1) * jobIDSpan
	return all, nil
}

// runPool calls body for 0..n-1 on at most workers goroutines and
// returns the first error in index order. A panic inside a pool
// goroutine cannot unwind past it, so callers' recovers (the revnicd
// job runner's in particular) would never see it and the whole
// process would die; it becomes that index's error instead.
func runPool(n, workers int, body func(i int) error) error {
	errs := make([]error, n)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("symexec: shard %d panic: %v", i, r)
			}
		}()
		errs[i] = body(i)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// shardEngine builds the engine that explores one shard task. It
// shares e's immutable inputs (program, translation image, arena,
// base image, configuration), takes its identity (symbol namespace,
// state-ID range) and registry snapshots (entry points, timer
// handler, DMA regions) from the task, and gets its own collector,
// solver and counters, so a group can be explored without touching
// e.
func (e *Engine) shardEngine(t *ShardTask) *Engine {
	s := &Engine{
		cfg:       e.cfg,
		prog:      e.prog,
		image:     e.image,
		col:       trace.NewCollector(),
		sol:       newSolver(e.cfg),
		ar:        e.ar,
		baseRAM:   e.baseRAM,
		done:      e.done,
		entries:   t.Entries,
		timer:     t.Timer,
		symPrefix: fmt.Sprintf("j%d.", t.Seq),
		stateID:   t.StateIDBase,
	}
	for _, r := range t.DMA {
		s.dma.Register(r[0], r[1])
	}
	return s
}

// exploreShard explores one shard group to completion on its shard
// engine and returns the mergeable outcome and the completed states
// (next-phase seed candidates). The shard's solver is closed on
// return, so the next shard's session can reuse its backend; the
// outcome holds only its counters.
func (e *Engine) exploreShard(t *ShardTask, states []*State) (*shardOutcome, []*State, error) {
	success, err := successFunc(t.Success)
	if err != nil {
		return nil, nil, err
	}
	s := e.shardEngine(t)
	defer s.sol.Close()
	completed, _, _, err := s.exploreSet(states, t.Phase, t.Budget, success, 0)
	if err != nil {
		return nil, nil, err
	}
	q, h := s.sol.Stats()
	return &shardOutcome{
		discov:    s.discov,
		exec:      s.exec,
		forks:     s.forks,
		killed:    s.killed,
		queries:   q,
		hits:      h,
		modelHits: s.modelHits,
		search:    s.sol.Search(),
		col:       s.col,
		dma:       s.dma,
		entries:   s.entries,
		timer:     s.timer,
		stopped:   s.stopHit,
	}, completed, nil
}

// shardOutcome is everything one explored shard feeds into the join,
// whether it was explored in memory (exploreShard) or decoded from a
// runner's result (decodeShardResult) — one merge implementation,
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
	e.shardQueries += o.queries
	e.shardHits += o.hits
	e.modelHits += o.modelHits
	e.shardSearch.Add(o.search)
	e.col.Merge(o.col)
	e.dma.Merge(&o.dma)
	if !e.entries.Registered() && o.entries.Registered() {
		e.entries = o.entries
	}
	if e.timer == 0 {
		e.timer = o.timer
	}
	if e.stopHit == TermRunning && o.stopped != TermRunning {
		// A stop observed inside a shard is a stop of the whole run;
		// latch it so Result.Stopped is set even when the parent's own
		// loop never polled after the fan-out.
		e.stopHit = o.stopped
	}
	e.lastCov = e.col.CoveredBlocks()
}
