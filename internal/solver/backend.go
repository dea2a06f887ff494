package solver

import (
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
// front end owns everything query-shaped — fingerprint caches, the
// counterexample index, constraint slicing, the incremental session's
// constraint stack — and the backend only decides conjunctions:
//
//   - Assert(c) conjoins constraint c (a width-1 expression)
//     permanently; Solve then decides the asserted conjunction. The
//     one-shot queries (Satisfiable, Model) use this pair.
//   - Root(c) blasts c and returns its root literal without asserting
//     it; SolveUnder(roots, cond) decides roots ∧ cond with every root
//     and cond as SAT assumptions. The incremental session uses this
//     pair: its path constraints are a stack of root literals, so a
//     pop retracts nothing from the clause database.
//   - Model, valid only immediately after a VSat verdict, returns a
//     satisfying assignment as a fresh name→value map.
//
// Every clause the blaster emits defines a gate variable and stays
// permanent, so learnt clauses stay valid whichever roots a later
// query assumes, and a memoized literal is always defined.
// SolveUnder branches only on the cone of its assumptions (see
// blaster.markCone).
//
// A backend is not safe for concurrent use; the front end serializes
// access (sessions under incMu, one-shots on private instances).
type coreBackend struct {
	b       *blaster
	assumps []sat.Lit // SolveUnder's buffer: the roots, then cond
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

func (c *coreBackend) Assert(e *expr.Expr) { c.b.s.AddClause(c.Root(e)) }

func (c *coreBackend) Root(e *expr.Expr) sat.Lit { return c.b.blast(e)[0] }

func (c *coreBackend) Solve() Verdict { return c.verdict(c.b.s.Solve()) }

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
	return c.verdict(c.b.s.SolveUnder(as...))
}

func (c *coreBackend) verdict(ok bool) Verdict {
	if ok {
		return VSat
	}
	if c.b.s.Interrupted() {
		return VUnknown
	}
	return VUnsat
}

func (c *coreBackend) Model() map[string]uint32 { return c.b.model() }
