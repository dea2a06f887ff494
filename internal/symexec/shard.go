package symexec

import (
	"fmt"

	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/solver"
	"revnic/internal/trace"
)

// This file is the wire form of the fork-join shards: with a
// ShardRunner set, each ShardTask carries its state group, any node
// can execute it (ExecuteShardTask), and its ShardResult merges back
// on the coordinator bit-identically to an in-memory shard. A task is
// idempotent — executing it twice, on different machines or once
// remotely and once as a local fallback, yields byte-for-byte the
// same result — which is what makes retries and straggler re-dispatch
// safe upstream.

// ShardBudget is an exploration allowance: a phase's remaining one
// while it spreads, and each shard's share of it (split) once it fans
// out.
type ShardBudget struct {
	// Blocks is the translation-block budget.
	Blocks int64 `json:"blocks"`
	// Stagnation ends exploration after this many blocks without new
	// coverage.
	Stagnation int64 `json:"stagnation"`
	// Successes is how many successful completions trigger the
	// remaining-path discard of §3.2.
	Successes int `json:"successes"`
	// MaxStates caps the live set.
	MaxStates int `json:"max_states"`
}

// ShardTask is one shard group of one phase, with everything a shard
// engine needs to explore it: the registry snapshots (entry points,
// timer handler, DMA regions), the split budget, and the
// deterministic identities (Seq names the symbol namespace,
// StateIDBase the reserved state-ID range). Group carries the states
// in wire form when the task goes to a ShardRunner; in-memory shards
// keep their states as they are.
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
// (each call builds a fresh shard engine over the shared image and
// arena); it does not recover panics, so a runner calling it on its
// own goroutines must. Execution is idempotent, so running a task
// twice — on two peers, or remotely and locally — and keeping
// whichever finishes first yields the same merged result.
type ShardRunner interface {
	RunShards(tasks []*ShardTask, local func(*ShardTask) (*ShardResult, error)) ([]*ShardResult, error)
}

// ExecuteShardTask executes one shard task against a fresh engine —
// the peer-node entry point behind POST /shards. prog and cfg must
// describe the same job the coordinator runs (same image, searcher
// and heuristics); cfg.Context bounds the execution (the serving
// node passes the request context, with the coordinator's remaining
// deadline applied). The result is
// bit-identical to the coordinator's in-memory exploration of the
// same group.
func ExecuteShardTask(prog *isa.Program, cfg Config, task *ShardTask) (*ShardResult, error) {
	return New(prog, cfg).runShardTask(task)
}

// runShardTask is the wire adapter around exploreShard, shared by
// peers (ExecuteShardTask) and the coordinator's local fallback: it
// validates the task, decodes its group into e's arena, explores it
// on a shard engine over e's immutable inputs, and encodes the
// outcome.
func (e *Engine) runShardTask(task *ShardTask) (*ShardResult, error) {
	if task.Budget.Successes < 1 || task.Budget.MaxStates < 1 {
		return nil, fmt.Errorf("symexec: shard %d: degenerate budget %+v", task.Index, task.Budget)
	}
	if n := len(task.DMA); n > maxWireDMA {
		return nil, fmt.Errorf("symexec: shard %d: %d DMA regions exceed the cap of %d", task.Index, n, maxWireDMA)
	}
	states, err := decodeStateGroup(task.Group, e.baseRAM, e.ar)
	if err != nil {
		return nil, err
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("symexec: shard %d: empty state group", task.Index)
	}
	o, completed, err := e.exploreShard(task, states)
	if err != nil {
		return nil, err
	}
	discov := make([]WireDiscovery, len(o.discov))
	for i, d := range o.discov {
		discov[i] = WireDiscovery{Addr: d.addr, Exec: d.exec}
	}
	return &ShardResult{
		Completed: encodeStateGroup(completed),
		Collector: o.col.Encode(),
		Discov:    discov,
		Exec:      o.exec,
		Forks:     o.forks,
		Killed:    o.killed,
		Queries:   o.queries,
		CacheHits: o.hits,
		ModelHits: o.modelHits,
		Search:    o.search,
		Entries:   o.entries,
		Timer:     o.timer,
		DMA:       o.dma.Regions(),
		Stopped:   int(o.stopped),
	}, nil
}

// maxWireBlocks caps the wiretap blocks of one decoded shard result.
// Each entry costs a translation of up to ir.MaxBlockInstrs
// instructions (~8 KB when it lands on zeroed RAM) however few bytes it
// takes on the wire, so the cap bounds what a hostile payload can make
// the coordinator allocate (~32 MB). maxWireDMA caps its DMA regions,
// which merge in time quadratic in their number, and equally the DMA
// list of a task a peer receives, which every load and store scans.
// The largest result the corpus produces holds 37 blocks and 69
// regions (5 drivers × Shards 2/4/8/16 × the coverage, dfs and bfs
// searchers).
const (
	maxWireBlocks = 4096
	maxWireDMA    = 1024
)

// decodeShardResult turns a wire result back into a mergeable
// outcome, resolving collector blocks through the coordinator's own
// translation image (so translated-block accounting matches a
// single-node run) and decoding the completed states into the
// coordinator's arena.
func (e *Engine) decodeShardResult(r *ShardResult) (*shardOutcome, []*State, error) {
	if r.Collector == nil {
		return nil, nil, fmt.Errorf("symexec: shard result without collector")
	}
	if r.Stopped < int(TermRunning) || r.Stopped > int(TermDeadline) {
		return nil, nil, fmt.Errorf("symexec: shard result with unknown stop reason %d", r.Stopped)
	}
	if n := len(r.Collector.Blocks); n > maxWireBlocks {
		return nil, nil, fmt.Errorf("symexec: shard result with %d blocks exceeds the cap of %d", n, maxWireBlocks)
	}
	if n := len(r.DMA); n > maxWireDMA {
		return nil, nil, fmt.Errorf("symexec: shard result with %d DMA regions exceeds the cap of %d", n, maxWireDMA)
	}
	col, err := r.Collector.Decode(e.image.Get)
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
