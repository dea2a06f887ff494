package symexec

import (
	"fmt"
	"math/rand"

	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/solver"
	"revnic/internal/trace"
)

// This file is the engine's half of distributed exploration: the
// fork-join shard groups that PR 1 made deterministic and
// worker-count-independent are extracted into self-contained
// ShardTasks that any node can execute (ExecuteShardTask) and whose
// ShardResults merge back on the coordinator bit-identically to the
// in-process path. A task is idempotent — executing it twice, on
// different machines or once remotely and once as a local fallback,
// yields byte-for-byte the same result — which is what makes retries
// and straggler re-dispatch safe upstream.

// ShardBudget is a phase's per-shard exploration allowance, already
// split by the coordinator (phaseBudgets.split).
type ShardBudget struct {
	Blocks     int64 `json:"blocks"`
	Stagnation int64 `json:"stagnation"`
	Successes  int   `json:"successes"`
	MaxStates  int   `json:"max_states"`
}

// ShardTask is one shard group of one phase, with everything a peer
// engine needs to continue the exploration exactly where the
// coordinator's worker child would have: the serialized states, the
// registry snapshots (entry points, timer handler, DMA regions), the
// split budgets, and the deterministic identities (Seq names the
// symbol namespace and RNG stream, StateIDBase the reserved state-ID
// range).
type ShardTask struct {
	Phase       string              `json:"phase"`
	Index       int                 `json:"index"`
	Seq         int                 `json:"seq"`
	StateIDBase int                 `json:"state_id_base"`
	Success     string              `json:"success"`
	Budget      ShardBudget         `json:"budget"`
	Entries     guestos.EntryPoints `json:"entries"`
	Timer       uint32              `json:"timer,omitempty"`
	DMA         [][2]uint32         `json:"dma,omitempty"`
	Group       *WireStateGroup     `json:"group"`
}

// ShardResult is everything a shard execution feeds into the
// coordinator's join: the completed states (next-phase seed
// candidates), the wiretap records, the coverage discovery log, and
// the counters the merged summary sums.
type ShardResult struct {
	Completed *WireStateGroup      `json:"completed,omitempty"`
	Collector *trace.WireCollector `json:"collector"`
	Discov    []WireDiscovery      `json:"discov,omitempty"`
	Exec      int64                `json:"exec"`
	Forks     int64                `json:"forks"`
	Killed    int64                `json:"killed"`
	Queries   int64                `json:"queries"`
	CacheHits int64                `json:"cache_hits"`
	ModelHits int64                `json:"model_hits"`
	Search    solver.SearchStats   `json:"search"`
	Entries   guestos.EntryPoints  `json:"entries"`
	Timer     uint32               `json:"timer,omitempty"`
	DMA       [][2]uint32          `json:"dma,omitempty"`
	Stopped   int                  `json:"stopped,omitempty"`
}

// WireDiscovery is one first-execution coverage event, stamped with
// the shard-local executed-block count.
type WireDiscovery struct {
	Addr uint32 `json:"addr"`
	Exec int64  `json:"exec"`
}

// ShardRunner executes shard tasks on behalf of the engine. The engine
// hands over a whole phase's shard tasks at once, so the runner can
// pull-schedule them across peers and re-dispatch stragglers; the
// cluster dispatcher implements it with its work queue. The runner
// must return one result per task, in task order. local executes a
// task on the coordinator engine — the guaranteed fallback whenever
// remote execution cannot deliver — and is safe to call concurrently
// (each call builds a fresh worker child over the shared cache and
// arena). Execution is idempotent, so running a task twice — on two
// peers, or remotely and locally — and keeping whichever finishes
// first yields the same merged result.
type ShardRunner interface {
	RunShards(tasks []*ShardTask, local func(*ShardTask) (*ShardResult, error)) ([]*ShardResult, error)
}

// ExecuteShardTask executes one shard task against a fresh engine —
// the peer-node entry point behind POST /shards. prog and cfg must
// describe the same job the coordinator runs (same image, seed,
// searcher and heuristics); cfg.Stop/Deadline bound the execution
// (the serving node passes the request context's cancellation).
// The result is bit-identical to what the coordinator's own worker
// child would have produced for the same group.
func ExecuteShardTask(prog *isa.Program, cfg Config, task *ShardTask) (*ShardResult, error) {
	return New(prog, cfg).runShardTask(task)
}

// executeShardLocal runs a shard task on the coordinator itself, as a
// worker child sharing the parent's translation cache and arena —
// the fallback path of the fault-tolerant dispatch, and byte-for-byte
// the single-node fork-join execution of the same group.
func (e *Engine) executeShardLocal(task *ShardTask) (res *ShardResult, err error) {
	// Mirror exploreShards' worker-panic conversion: a panic here runs
	// on a runner goroutine and must surface as a shard error, not kill
	// the process.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("symexec: shard %d local fallback panic: %v", task.Index, r)
		}
	}()
	c := &Engine{
		cfg:     e.cfg,
		prog:    e.prog,
		cache:   e.cache,
		col:     trace.NewCollector(),
		sol:     newSolver(e.cfg),
		ar:      e.ar,
		baseRAM: e.baseRAM,
	}
	return c.runShardTask(task)
}

// runShardTask restores the deterministic worker-child identity from
// the task, decodes the group, explores it and serializes the
// outcome. The engine must be fresh apart from its shared immutable
// inputs (image, cache, arena, config).
func (e *Engine) runShardTask(task *ShardTask) (*ShardResult, error) {
	success, err := successFunc(task.Success)
	if err != nil {
		return nil, err
	}
	if task.Budget.Successes < 1 || task.Budget.MaxStates < 1 {
		return nil, fmt.Errorf("symexec: shard %d: degenerate budget %+v", task.Index, task.Budget)
	}
	e.symPrefix = fmt.Sprintf("j%d.", task.Seq)
	e.rng = rand.New(rand.NewSource(e.cfg.Seed + int64(task.Seq)))
	e.stateID = task.StateIDBase
	e.entries = task.Entries
	e.timer = task.Timer
	e.dma = hw.DMARegistry{}
	for _, r := range task.DMA {
		e.dma.Register(r[0], r[1])
	}
	states, err := decodeStateGroup(task.Group, e.baseRAM, e.ar)
	if err != nil {
		return nil, err
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("symexec: shard %d: empty state group", task.Index)
	}
	bdg := phaseBudgets{
		blocks:     task.Budget.Blocks,
		stagnation: task.Budget.Stagnation,
		successes:  task.Budget.Successes,
		maxStates:  task.Budget.MaxStates,
	}
	completed, _, _, err := e.exploreSet(states, task.Phase, bdg, success, 0)
	if err != nil {
		return nil, err
	}
	discov := make([]WireDiscovery, len(e.discov))
	for i, d := range e.discov {
		discov[i] = WireDiscovery{Addr: d.addr, Exec: d.exec}
	}
	q, h := e.sol.Stats()
	return &ShardResult{
		Completed: encodeStateGroup(completed),
		Collector: e.col.Encode(),
		Discov:    discov,
		Exec:      e.exec,
		Forks:     e.forks,
		Killed:    e.killed,
		Queries:   q,
		CacheHits: h,
		ModelHits: e.sol.ModelHits(),
		Search:    e.sol.Search(),
		Entries:   e.entries,
		Timer:     e.timer,
		DMA:       e.dma.Regions(),
		Stopped:   int(e.stopHit),
	}, nil
}

// decodeShardResult turns a wire result back into a mergeable
// outcome, resolving collector blocks through the coordinator's own
// translation cache (so translated-block accounting matches a
// single-node run) and decoding the completed states into the
// coordinator's arena.
func (e *Engine) decodeShardResult(r *ShardResult) (*shardOutcome, []*State, error) {
	if r.Collector == nil {
		return nil, nil, fmt.Errorf("symexec: shard result without collector")
	}
	if r.Stopped < int(TermRunning) || r.Stopped > int(TermDeadline) {
		return nil, nil, fmt.Errorf("symexec: shard result with unknown stop reason %d", r.Stopped)
	}
	col, err := r.Collector.Decode(e.cache.Get)
	if err != nil {
		return nil, nil, err
	}
	states, err := decodeStateGroup(r.Completed, e.baseRAM, e.ar)
	if err != nil {
		return nil, nil, err
	}
	var dma hw.DMARegistry
	for _, reg := range r.DMA {
		dma.Register(reg[0], reg[1])
	}
	discov := make([]covDiscovery, len(r.Discov))
	for i, d := range r.Discov {
		discov[i] = covDiscovery{addr: d.Addr, exec: d.Exec}
	}
	return &shardOutcome{
		discov:    discov,
		exec:      r.Exec,
		forks:     r.Forks,
		killed:    r.Killed,
		queries:   r.Queries,
		hits:      r.CacheHits,
		modelHits: r.ModelHits,
		search:    r.Search,
		col:       col,
		dma:       dma,
		entries:   r.Entries,
		timer:     r.Timer,
		stopped:   TermReason(r.Stopped),
	}, states, nil
}
