package solver

import (
	"revnic/internal/expr"
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
// front end owns everything query-shaped — fingerprint caches, the
// counterexample index, constraint slicing — and the backend only
// decides conjunctions through a scoped assertion stack:
//
//   - Assert(c) conjoins constraint c (a width-1 expression) at the
//     current scope. Assertions made with no open scope are permanent.
//   - Push opens a scope; Pop retires the most recent scope and every
//     assertion made inside it. Pop on an empty scope stack panics.
//   - SolveUnder(cond) decides SAT(asserted ∧ cond) without asserting
//     cond; cond == nil decides the asserted conjunction alone.
//   - Model, valid only immediately after a VSat verdict, returns a
//     satisfying assignment as a fresh name→value map.
//
// Scopes map to sat assumption-selector scopes: only the root literal
// of each asserted constraint is scoped — the definitional gate
// clauses the blaster emits stay permanent, because the blaster memo
// outlives pops and a memoized literal whose defining clauses were
// retired would be unconstrained.
//
// A backend is not safe for concurrent use; the front end serializes
// access (sessions under incMu, one-shots on private instances).
type coreBackend struct {
	b *blaster
}

// newCoreBackend builds a backend whose SAT instance polls interrupt,
// when non-nil, as a cooperative abort hook: an aborted query answers
// VUnknown.
func newCoreBackend(interrupt func() bool) *coreBackend {
	b := newBlaster()
	if interrupt != nil {
		b.s.SetInterrupt(interrupt)
	}
	return &coreBackend{b: b}
}

func (c *coreBackend) Assert(e *expr.Expr) {
	lit := c.b.blast(e)[0]
	c.b.s.AddScoped(lit)
}

func (c *coreBackend) Push() { c.b.s.Push() }
func (c *coreBackend) Pop()  { c.b.s.Pop() }

func (c *coreBackend) SolveUnder(cond *expr.Expr) Verdict {
	var ok bool
	switch {
	case cond == nil || cond.IsTrue():
		ok = c.b.s.Solve()
	case cond.IsFalse():
		// asserted ∧ false is unsatisfiable regardless of the stack.
		return VUnsat
	default:
		lit := c.b.blast(cond)[0]
		ok = c.b.s.SolveUnder(lit)
	}
	if ok {
		return VSat
	}
	if c.b.s.Interrupted() {
		return VUnknown
	}
	return VUnsat
}

func (c *coreBackend) Model() map[string]uint32 { return c.b.model() }
