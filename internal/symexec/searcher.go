package symexec

import (
	"container/heap"
	"fmt"
	"sort"
)

// This file defines the pluggable path-selection layer. The engine's
// state-selection loop no longer hardcodes a strategy enum: each
// exploration (the root engine and every fork-join shard engine)
// constructs a Searcher through the factory in Config.Searcher and
// consults it for every scheduling decision. Determinism is part of
// the contract — a Searcher sees only deterministic inputs (the live
// set in its deterministic order, the engine-local block counts), so
// for a fixed Config the explored paths are bit-identical for every
// Config.Workers value, per searcher.

// Searcher picks the next state to execute from the live set and is
// kept informed as the frontier changes.
//
// The engine's protocol: Select is called with the current live set
// (never empty) and must return one of its members; the engine then
// removes that state from the set, executes one translation block,
// and calls Update with the step's follow-on states as added (which
// may include the selected state, if it is still live) and the states
// that left the frontier as removed — the selected state always,
// plus any states discarded by the budget and memory heuristics.
// Implementations must be deterministic functions of this call
// sequence and of engine-local statistics; they need not be safe for
// concurrent use (each exploration owns its searcher).
type Searcher interface {
	// Name identifies the searcher in reports and flags.
	Name() string
	// Select returns the next state to run; must be an element of live.
	Select(live []*State) *State
	// Update informs the searcher of frontier changes: removed states
	// leave first, then added states join. Both slices are valid only
	// during the call (the engine reuses their backing arrays), so a
	// searcher keeps states, never the slices.
	Update(added, removed []*State)
}

// BlockCounts is the engine-side statistics view searchers may
// consult; the trace collector implements it.
type BlockCounts interface {
	// BlockCount returns how often the block at addr has executed in
	// this exploration.
	BlockCount(addr uint32) int64
}

// SearcherFactory builds a fresh searcher for one exploration. The
// engine calls it once per explored state group with its own
// statistics view, so searcher state is never shared across
// concurrent workers.
type SearcherFactory func(counts BlockCounts) Searcher

// NewCoverageGuided returns the paper's default heuristic (§3.2): run
// the state whose next block has executed least. "A good side effect
// of this heuristic is that it does not get stuck in loops."
//
// Selection is a priority queue keyed on block execution counts, not
// a scan of the live set: Select is O(log n) in the frontier size, so
// large MaxStates configurations no longer pay O(n) per scheduling
// decision. Because block counts only grow, the queue rescores
// lazily — an entry's priority is re-checked (and the entry pushed
// back down) only when it surfaces at the top — which keeps Update
// O(1) per frontier change instead of reheapifying on every count
// bump.
func NewCoverageGuided(counts BlockCounts) Searcher {
	return &coverageSearcher{counts: counts, pos: map[*State]*covEntry{}}
}

// covEntry is one frontier state in the coverage priority queue.
type covEntry struct {
	st *State
	// count is the block count the entry was last scored with; it may
	// lag the collector (lazy rescoring), never lead it.
	count int64
	// seq breaks count ties FIFO, keeping selection a deterministic
	// function of the engine's call sequence.
	seq   int
	index int // heap position, maintained by covHeap
}

type coverageSearcher struct {
	counts BlockCounts
	h      covHeap
	pos    map[*State]*covEntry
	seq    int
	// free recycles the entries of states that left the frontier.
	free []*covEntry
}

func (s *coverageSearcher) Name() string { return "coverage" }

func (s *coverageSearcher) Select(live []*State) *State {
	if len(s.h) == 0 {
		// Defensive resynchronization; the engine protocol keeps the
		// queue in lockstep with live, so this is never hit there.
		s.Update(live, nil)
	}
	for {
		top := s.h[0]
		// Lazy rescoring: counts are monotone, so a stale entry can
		// only have become worse. Fix it in place and look again; an
		// up-to-date top is the true minimum.
		if c := s.counts.BlockCount(top.st.PC); c != top.count {
			top.count = c
			heap.Fix(&s.h, 0)
			continue
		}
		return top.st
	}
}

func (s *coverageSearcher) Update(added, removed []*State) {
	for _, r := range removed {
		if e, ok := s.pos[r]; ok {
			heap.Remove(&s.h, e.index)
			delete(s.pos, r)
			e.st = nil
			s.free = append(s.free, e)
		}
	}
	for _, a := range added {
		if _, ok := s.pos[a]; ok {
			continue
		}
		var e *covEntry
		if n := len(s.free); n > 0 {
			e = s.free[n-1]
			s.free = s.free[:n-1]
		} else {
			e = new(covEntry)
		}
		*e = covEntry{st: a, count: s.counts.BlockCount(a.PC), seq: s.seq}
		s.seq++
		s.pos[a] = e
		heap.Push(&s.h, e)
	}
}

// covHeap is a min-heap of frontier entries ordered by (count, seq).
type covHeap []*covEntry

func (h covHeap) Len() int { return len(h) }
func (h covHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].seq < h[j].seq
}
func (h covHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *covHeap) Push(x any) {
	e := x.(*covEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *covHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewDFS returns a depth-first searcher: the most recently produced
// state runs next, so one path is driven to termination before its
// siblings. The §3.2 ablation baseline.
func NewDFS(BlockCounts) Searcher { return &frontierSearcher{name: "dfs", lifo: true} }

// NewBFS returns a breadth-first searcher: states run in the order
// they were produced, exploring all paths in lockstep.
func NewBFS(BlockCounts) Searcher { return &frontierSearcher{name: "bfs"} }

// frontierSearcher maintains an explicit frontier ordered by
// insertion; lifo selects stack (DFS) or queue (BFS) discipline.
type frontierSearcher struct {
	name  string
	lifo  bool
	order []*State
}

func (s *frontierSearcher) Name() string { return s.name }

func (s *frontierSearcher) Select(live []*State) *State {
	if len(s.order) == 0 {
		// Defensive resynchronization; the engine protocol keeps the
		// frontier in lockstep with live, so this is never hit there.
		s.order = append(s.order, live...)
	}
	if s.lifo {
		return s.order[len(s.order)-1]
	}
	return s.order[0]
}

func (s *frontierSearcher) Update(added, removed []*State) {
	for _, r := range removed {
		// The departing state is almost always at the selection end;
		// scan from there.
		if s.lifo {
			for i := len(s.order) - 1; i >= 0; i-- {
				if s.order[i] == r {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		} else {
			for i := 0; i < len(s.order); i++ {
				if s.order[i] == r {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	}
	s.order = append(s.order, added...)
}

// searcherFactories is the flag-name registry; cmd/revnic and
// cmd/revbench resolve their -strategy flags here. "mincount" is the
// historical alias of the coverage-guided default.
var searcherFactories = map[string]SearcherFactory{
	"coverage": NewCoverageGuided,
	"mincount": NewCoverageGuided,
	"dfs":      NewDFS,
	"bfs":      NewBFS,
}

// SearcherByName resolves a -strategy flag value to a factory.
func SearcherByName(name string) (SearcherFactory, error) {
	if f, ok := searcherFactories[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("symexec: unknown strategy %q (have %v)", name, SearcherNames())
}

// SearcherNames lists the registered strategy names, sorted.
func SearcherNames() []string {
	names := make([]string, 0, len(searcherFactories))
	for n := range searcherFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
