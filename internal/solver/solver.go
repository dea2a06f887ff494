// Package solver decides satisfiability of conjunctions of symbolic
// bitvector constraints (package expr). It is layered:
//
//   - a front end (this file) owning everything query-shaped: the
//     fingerprint-keyed answer cache, constraint-independence slicing,
//     and the incremental session;
//   - the core backend (backend.go): Root / SolveUnder and Model,
//     over the bit-blaster (blast.go) and the CDCL SAT core (package
//     sat).
//
// It fills the role STP fills for KLEE in the original RevNIC: the
// symbolic execution engine asks, at every branch that depends on
// symbolic input, whether an outcome is feasible under the current
// path constraints, and enumerates concrete values when it forks on a
// symbolic jump target (§3.4 of the paper). Every SAT answer comes
// with a model over exactly the symbols of its sliced query; the
// engine keeps one such model per state as the state's witness and
// answers the side of a branch the witness takes, and every
// concretization, by evaluation alone, so the solver sees one query
// per symbolic branch.
//
// The query path is built on what interning puts on every expression
// node, its ID (expr.ID) and its symbols (expr.Syms):
//
//   - the answer cache keys on an order-insensitive uint64 hash of
//     the constraint IDs, so a cache probe allocates nothing, and
//     holds the model of every SAT answer beside the verdict;
//   - slicing runs its fixed point over a bitset of the symbols'
//     per-arena indices, and a model binds the union of its query's
//     symbol lists, so neither walks an expression or consults a
//     shared table; index order decides set membership only, never
//     slice order, SAT variable numbering or a cache key;
//   - every query the cache cannot answer (MayBeTrue, Model) is
//     decided incrementally: the solver keeps one backend session
//     whose stack of root literals mirrors the query's constraint
//     prefix, so sibling states after a fork share the blasted prefix
//     instead of rebuilding it. The roots and the condition are
//     decided as SAT assumptions (SolveUnder), branching only on their
//     cone. Close hands the session's backend to a process-wide free
//     list, so the next session reuses its buffers instead of growing
//     new ones.
//
// Determinism contract: query answers, their models and every cache
// side effect are bit-identical run-to-run.
package solver

import (
	"sync"
	"sync/atomic"

	"revnic/internal/expr"
	"revnic/internal/sat"
)

// Result is the outcome of a satisfiability query.
type Result int

// Query outcomes.
const (
	Unsat Result = iota
	Sat
)

// cacheCap bounds the answer cache. When an exploration would grow
// the cache past it the cache is reset — an epoch flush — so long runs
// hold at most one epoch of memoized queries; Evictions reports how
// often that happened.
const cacheCap = 1 << 16

// Config parameterizes a solver. The zero value selects the defaults
// New uses.
type Config struct {
	// Arena is the expression arena the solver builds derived
	// expressions in (the exclusion constraints of Values). nil
	// selects the process-global default arena; a job-scoped solver
	// must pass the job's arena so its expressions die with the job.
	Arena *expr.Arena
	// Interrupt, when non-nil, is polled during solving (installed on
	// the session's SAT instance): returning true aborts the solve.
	// Aborted queries answer conservatively (UNSAT / no model) and are
	// never cached, so an interrupt can wind a job down early but can
	// never poison answers of later queries. A hook that
	// never returns true leaves all answers unchanged.
	Interrupt func() bool
}

// Solver answers bitvector queries with memoization and an
// incremental solver session. The zero value is not
// usable; call New or NewWith.
//
// A Solver is safe for concurrent use: the caches are mutex-guarded
// and the statistics counters are atomic, so parallel exploration
// workers may share one instance. Queries the caches answer proceed in
// parallel; the rest serialize on the shared session.
//
// A Solver whose work is done should be closed: Close recycles its
// session's SAT instance for the next solver, and the counters stay
// readable afterwards.
type Solver struct {
	ar        *expr.Arena
	interrupt func() bool

	mu sync.Mutex
	// cache maps a query fingerprint to its answer: the model of a SAT
	// query, nil for an UNSAT one.
	cache      map[uint64]map[string]uint32
	cacheLimit int // cacheCap; tests lower it to exercise flushes

	incMu sync.Mutex
	inc   *session

	queries   atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64
	extended  atomic.Int64
	created   atomic.Int64
	decisions atomic.Int64
	conflicts atomic.Int64
}

// session is the incremental backend context: roots[i] is the root
// literal of the constraint with interned ID ids[i], and a query
// decides its condition under all of them. A query synchronizes the
// stack with its own prefix by truncating it to the longest common
// prefix and appending the new suffix — sibling states after a fork
// share everything up to the fork point. Truncating retracts nothing
// from the SAT instance: a root is an assumption, not a clause.
type session struct {
	b     *coreBackend
	ids   []uint64
	roots []sat.Lit
}

// New returns a solver with the default configuration: the default
// arena and no interrupt hook.
func New() *Solver { return NewWith(Config{}) }

// NewWith returns a solver configured by cfg.
func NewWith(cfg Config) *Solver {
	if cfg.Arena == nil {
		cfg.Arena = expr.Default()
	}
	return &Solver{
		ar:         cfg.Arena,
		interrupt:  cfg.Interrupt,
		cache:      map[uint64]map[string]uint32{},
		cacheLimit: cacheCap,
	}
}

// Stats returns the number of queries answered and the fingerprint
// cache hits among them. It is safe to call while queries are in
// flight.
func (s *Solver) Stats() (queries, cacheHits int64) {
	return s.queries.Load(), s.hits.Load()
}

// SearchStats is the SAT-level work behind a solver's answers. Every
// count is a pure function of the query sequence, so, like the query
// counters, it repeats exactly run to run and across worker counts.
type SearchStats struct {
	// Decisions and Conflicts sum the SAT core's branch decisions and
	// conflicts over every solve; every solve runs on the session.
	Decisions int64 `json:"decisions"`
	Conflicts int64 `json:"conflicts"`
	// SessionsExtended counts queries decided on the running backend
	// session (its root stack truncated to the shared prefix, possibly
	// extended by new suffix constraints); SessionsRebuilt counts
	// sessions created, one per solver that decided any query (the
	// first such query creates it, and a session is never rebuilt).
	SessionsExtended int64 `json:"sessions_extended"`
	SessionsRebuilt  int64 `json:"sessions_rebuilt"`
}

// Add accumulates o into st.
func (st *SearchStats) Add(o SearchStats) {
	st.Decisions += o.Decisions
	st.Conflicts += o.Conflicts
	st.SessionsExtended += o.SessionsExtended
	st.SessionsRebuilt += o.SessionsRebuilt
}

// Search reports the SAT-level work so far. It is safe to call while
// queries are in flight.
func (s *Solver) Search() SearchStats {
	return SearchStats{
		Decisions:        s.decisions.Load(),
		Conflicts:        s.conflicts.Load(),
		SessionsExtended: s.extended.Load(),
		SessionsRebuilt:  s.created.Load(),
	}
}

// Close releases s's session: its backend is reset and returned to the
// process-wide free list, where the next session any solver creates
// picks it up instead of allocating its SAT instance afresh. Stats and
// Search stay readable after Close. A query after Close
// creates a new session (and counts it); closing twice, or closing a
// solver that never decided a query, is a no-op.
func (s *Solver) Close() {
	s.incMu.Lock()
	sess := s.inc
	s.inc = nil
	s.incMu.Unlock()
	if sess != nil {
		sess.b.free()
	}
}

// CacheSize returns the current number of memoized queries.
func (s *Solver) CacheSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Evictions returns how many times the cache hit its limit and was
// flushed.
func (s *Solver) Evictions() int64 { return s.evictions.Load() }

// MayBeTrue reports whether cond can be true under the path
// constraints, SAT(pc ∧ cond), and returns a model proving it. The
// path condition is sliced to the constraints relevant to cond first,
// and the model binds exactly the symbols of that slice and of cond
// (0 where the solver left one free): the constraints outside the
// slice share no symbol with it, so laying the model over any
// assignment satisfying pc yields one satisfying pc ∧ cond. The
// sliced prefix lives on a shared backend session as a stack of root
// literals, so sibling states after a fork share the common prefix,
// and the roots and cond are decided as assumptions (SolveUnder), so
// consecutive branches over the same variables share translation work
// and learnt clauses. The model is shared with the cache: callers
// must not modify it.
func (s *Solver) MayBeTrue(pc []*expr.Expr, cond *expr.Expr) (map[string]uint32, bool) {
	s.queries.Add(1)
	slice := Slice(pc, cond)
	if sliceObserver != nil {
		sliceObserver(pc, cond, slice)
	}
	prefix, unsat := liveConstraints(slice)
	if unsat || cond.IsFalse() {
		return nil, false
	}
	if cond.IsTrue() {
		if len(prefix) == 0 {
			return map[string]uint32{}, true
		}
		cond = nil
	}
	m := s.query(prefix, cond)
	return m, m != nil
}

// query answers SAT(prefix ∧ cond) for live constraints, cond nil or
// a non-constant condition, and at least one constraint in all: the
// model of a SAT answer, nil for UNSAT. The answer cache is probed
// first; a decided answer is stored there, its model restricted to the
// query's symbols. A returned model belongs to the solver.
func (s *Solver) query(prefix []*expr.Expr, cond *expr.Expr) map[string]uint32 {
	full := prefix
	if cond != nil {
		full = append(prefix[:len(prefix):len(prefix)], cond)
	}
	fp := fingerprint(full)
	if m, ok := s.cacheGet(fp); ok {
		s.hits.Add(1)
		return m
	}
	v, model := s.solveSession(prefix, cond, full)
	// VUnknown: the search was aborted; answer UNSAT, cache nothing.
	if v != VUnknown {
		s.cachePut(fp, model)
	}
	return model
}

// solveSession decides SAT(prefix ∧ cond) on the shared session and
// returns the model of a SAT verdict over the symbols of full. The
// session's root stack is synchronized with the prefix: truncate to
// the longest common prefix, blast the suffix and push its roots.
// After a fork, the two children differ only in their last
// constraint, so the whole shared prefix — its CNF and its learnt
// clauses — is reused instead of rebuilt.
func (s *Solver) solveSession(prefix []*expr.Expr, cond *expr.Expr, full []*expr.Expr) (Verdict, map[string]uint32) {
	s.incMu.Lock()
	defer s.incMu.Unlock()
	sess := s.inc
	if sess == nil {
		sess = &session{b: newCoreBackend(s.interrupt)}
		s.inc = sess
		s.created.Add(1)
	} else {
		s.extended.Add(1)
	}
	common := 0
	for common < len(sess.ids) && common < len(prefix) &&
		sess.ids[common] == prefix[common].ID() {
		common++
	}
	sess.ids, sess.roots = sess.ids[:common], sess.roots[:common]
	for _, c := range prefix[common:] {
		sess.ids = append(sess.ids, c.ID())
		sess.roots = append(sess.roots, sess.b.Root(c))
	}
	d0, c0 := sess.b.b.s.Stats()
	v := sess.b.SolveUnder(sess.roots, cond)
	d1, c1 := sess.b.b.s.Stats()
	s.decisions.Add(d1 - d0)
	s.conflicts.Add(c1 - c0)
	if v == VSat {
		return v, sess.b.Model(queryVars(full))
	}
	return v, nil
}

// Model returns a satisfying assignment for the constraints, or ok =
// false if they are unsatisfiable. The model binds exactly the
// symbols the constraints mention. Models are cached beside the
// verdicts: re-asking for the model of a known constraint set costs a
// fingerprint probe. The model is shared with the cache: callers must
// not modify it.
func (s *Solver) Model(constraints []*expr.Expr) (map[string]uint32, bool) {
	s.queries.Add(1)
	live, unsat := liveConstraints(constraints)
	if unsat {
		return nil, false
	}
	if len(live) == 0 {
		return map[string]uint32{}, true
	}
	m := s.query(live, nil)
	return m, m != nil
}

// Values enumerates up to max (at least 1) distinct concrete values e
// can take under the path constraints, in the order they are found.
// This implements the jump-table enumeration of §3.4: "Since there
// are typically only a few concrete values, RevNIC generates all of
// them and forks the execution for each such value." w must satisfy
// pc: the value e takes under w comes first, without a query, with a
// nil model. Every later value comes with the model that produced it,
// binding the symbols of Slice(pc, e) and e, so laid over w it
// satisfies pc and gives e that value.
func (s *Solver) Values(pc []*expr.Expr, e *expr.Expr, w map[string]uint32, max int) ([]uint32, []map[string]uint32) {
	if v, ok := e.IsConst(); ok {
		return []uint32{v}, []map[string]uint32{nil}
	}
	v := expr.Eval(e, w)
	vals, models := []uint32{v}, []map[string]uint32{nil}
	cons := Slice(pc, e)
	for len(vals) < max {
		cons = append(cons, s.ar.Not(s.ar.Eq(e, s.ar.C(v, e.Width))))
		m, ok := s.Model(cons)
		if !ok {
			break
		}
		v = expr.Eval(e, m)
		vals, models = append(vals, v), append(models, m)
	}
	return vals, models
}
