package solver

import (
	"sync"

	"revnic/internal/expr"
	"revnic/internal/sat"
)

// Verdict is the backend's answer to a satisfiability query. Unlike
// the two-valued Result of the front-end API, it is three-valued:
// VUnknown means the search was interrupted, and the front end must
// treat it conservatively (answer "unsat", cache nothing).
type Verdict int8

// Backend verdicts.
const (
	VUnknown Verdict = iota
	VUnsat
	VSat
)

// String renders the verdict for logs and tests.
func (v Verdict) String() string {
	switch v {
	case VSat:
		return "sat"
	case VUnsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// coreBackend is the decision procedure underneath the solver front
// end: bit-blasting to CNF over the CDCL SAT core (package sat). The
// front end owns everything query-shaped — the answer cache,
// constraint slicing, the incremental session's constraint stack —
// and the backend only decides conjunctions:
//
//   - Root(c) blasts constraint c (a width-1 expression) and returns
//     its root literal without asserting it; SolveUnder(roots, cond)
//     decides roots ∧ cond with every root and cond as SAT
//     assumptions. The session, on which every query is decided, keeps
//     its constraints as a stack of root literals, so a pop retracts
//     nothing from the clause database.
//   - Model, valid only immediately after a VSat verdict, returns the
//     satisfying assignment of the given symbols as a fresh
//     name→value map.
//
// Every clause the blaster emits defines a gate variable and stays
// permanent, so learnt clauses stay valid whichever roots a later
// query assumes, and a memoized literal is always defined.
// SolveUnder branches only on the cone of its assumptions (see
// blaster.markCone).
//
// A backend is not safe for concurrent use; the front end serializes
// access to its session under incMu.
//
// Backends are recycled: Solver.Close resets its session's backend
// and puts it on a process-wide free list, and newCoreBackend draws
// from that list before building a new one. A reset backend decides
// every query exactly as a new one does, but its SAT arrays, watch
// lists and blaster maps keep the capacity the last session grew.
type coreBackend struct {
	b       *blaster
	assumps []sat.Lit // SolveUnder's buffer: the roots, then cond
}

// maxPooledBackends bounds the free list, so a burst of concurrent
// sessions does not pin its peak memory for the rest of the process.
// An exploration keeps its parent's session live while the worker
// children explore, so the bound leaves room for a few workers of a
// few concurrent jobs.
const maxPooledBackends = 8

// backendPool is the process-wide free list of reset backends.
var backendPool struct {
	mu   sync.Mutex
	free []*coreBackend
}

// newCoreBackend returns an empty backend, recycled when the free list
// has one, whose SAT instance polls interrupt, when non-nil, as a
// cooperative abort hook: an aborted query answers VUnknown.
func newCoreBackend(interrupt func() bool) *coreBackend {
	var c *coreBackend
	backendPool.mu.Lock()
	if n := len(backendPool.free); n > 0 {
		c = backendPool.free[n-1]
		backendPool.free[n-1] = nil
		backendPool.free = backendPool.free[:n-1]
	}
	backendPool.mu.Unlock()
	if c == nil {
		c = &coreBackend{b: newBlaster()}
	}
	if interrupt != nil {
		c.b.s.SetInterrupt(interrupt)
	}
	return c
}

// free resets c and returns it to the free list, or drops it when the
// list is full. The caller must not use c afterwards.
func (c *coreBackend) free() {
	c.b.reset()
	backendPool.mu.Lock()
	if len(backendPool.free) < maxPooledBackends {
		backendPool.free = append(backendPool.free, c)
	}
	backendPool.mu.Unlock()
}

func (c *coreBackend) Root(e *expr.Expr) sat.Lit { return c.b.blast(e)[0] }

func (c *coreBackend) SolveUnder(roots []sat.Lit, cond *expr.Expr) Verdict {
	if cond != nil && cond.IsFalse() {
		return VUnsat
	}
	as := append(c.assumps[:0], roots...)
	if cond != nil && !cond.IsTrue() {
		as = append(as, c.Root(cond))
	}
	c.assumps = as
	c.b.markCone(as)
	if c.b.s.SolveUnder(as...) {
		return VSat
	}
	if c.b.s.Interrupted() {
		return VUnknown
	}
	return VUnsat
}

func (c *coreBackend) Model(syms []*expr.Expr) map[string]uint32 { return c.b.model(syms) }
