// Package solver decides satisfiability of conjunctions of symbolic
// bitvector constraints (package expr). It is layered:
//
//   - a front end (this file) owning everything query-shaped:
//     fingerprint-keyed verdict/model caches, the per-variable-set
//     counterexample index, constraint-independence slicing, and
//     incremental sessions;
//   - the core backend (backend.go): Assert / Solve for one-shot
//     queries, Root / SolveUnder for the session, and Model, over the
//     bit-blaster (blast.go) and the CDCL SAT core (package sat).
//
// It fills the role STP fills for KLEE in the original RevNIC: the
// symbolic execution engine asks, at every branch that depends on
// symbolic input, whether each outcome is feasible under the current
// path constraints, and requests concrete models when it needs to
// concretize (e.g., for symbolic memory addresses, §3.4 of the paper).
//
// The query path is built on interned expression IDs (expr.ID):
//
//   - the sat/unsat cache and the model cache key on an
//     order-insensitive uint64 hash of the constraint IDs, so a cache
//     probe allocates nothing;
//   - the counterexample index (cache.go) answers subsumed queries
//     job-wide: weaker queries by re-evaluating indexed models,
//     stronger queries by UNSAT-set subsumption;
//   - branch-feasibility queries (MayBeTrue) run incrementally: the
//     solver keeps one backend session whose stack of root literals
//     mirrors the sliced constraint prefix, so sibling states after a
//     fork share the blasted prefix instead of rebuilding it. The
//     roots and the condition are decided as SAT assumptions
//     (SolveUnder), branching only on their cone.
//
// Determinism contract: query answers and every cache side effect are
// bit-identical run-to-run.
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

// cacheCap bounds the query cache. When an exploration would grow
// the cache past it the cache (and the model cache beside it) is
// reset — an epoch flush — so long runs hold at most one epoch of
// memoized queries; Evictions reports how often that happened.
const cacheCap = 1 << 16

// cxModels sizes the counterexample index: models kept per
// variable-set bucket, and the length of the global recency list
// probed as a fallback.
const cxModels = 4

// Config parameterizes a solver. The zero value selects the defaults
// New uses.
type Config struct {
	// Arena is the expression arena the solver builds derived
	// expressions in (negations for MustBeTrue, exclusion constraints
	// for Values). nil selects the process-global default arena; a
	// job-scoped solver must pass the job's arena so its expressions
	// die with the job.
	Arena *expr.Arena
	// Interrupt, when non-nil, is polled during solving (installed on
	// every SAT instance the solver creates): returning true aborts the
	// solve. Aborted queries answer conservatively (UNSAT / no model)
	// and are never cached, so an interrupt can wind a job down early
	// but can never poison answers of later queries. A hook that
	// never returns true leaves all answers unchanged.
	Interrupt func() bool
}

// Solver answers bitvector queries with memoization, counterexample
// reuse and incremental branch queries. The zero value is not usable;
// call New or NewWith.
//
// A Solver is safe for concurrent use: the caches are mutex-guarded
// and the statistics counters are atomic, so parallel exploration
// workers may share one instance. One-shot queries each run on a
// private backend instance and proceed in parallel; incremental
// branch queries serialize on the shared session.
type Solver struct {
	ar        *expr.Arena
	interrupt func() bool

	mu         sync.Mutex
	cache      map[uint64]bool
	models     map[uint64]map[string]uint32
	cx         *cxIndex
	cacheLimit int // cacheCap; tests lower it to exercise flushes

	incMu sync.Mutex
	inc   *session

	queries   atomic.Int64
	hits      atomic.Int64
	modelHits atomic.Int64
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
		cache:      map[uint64]bool{},
		models:     map[uint64]map[string]uint32{},
		cx:         newCxIndex(),
		cacheLimit: cacheCap,
	}
}

// newBackend builds a fresh backend configured per the solver.
func (s *Solver) newBackend() *coreBackend {
	return newCoreBackend(s.interrupt)
}

// Stats returns the number of queries answered and the fingerprint
// cache hits among them. It is safe to call while queries are in
// flight.
func (s *Solver) Stats() (queries, cacheHits int64) {
	return s.queries.Load(), s.hits.Load()
}

// ModelHits returns how many queries were answered by the
// counterexample machinery instead of solving: exact model-cache
// hits, indexed-model re-evaluation, and UNSAT-set subsumption.
func (s *Solver) ModelHits() int64 { return s.modelHits.Load() }

// SearchStats is the SAT-level work behind a solver's answers. Every
// count is a pure function of the query sequence, so, like the query
// counters, it repeats exactly run to run and across worker counts.
type SearchStats struct {
	// Decisions and Conflicts sum the SAT core's branch decisions and
	// conflicts over every solve, on the session and on one-shot
	// backends alike.
	Decisions int64 `json:"decisions"`
	Conflicts int64 `json:"conflicts"`
	// SessionsExtended counts incremental queries served by the
	// running backend session (its root stack truncated to the shared
	// prefix, possibly extended by new suffix constraints);
	// SessionsRebuilt counts sessions created, one per solver that
	// answered an incremental query (the first such query creates it,
	// and a session is never rebuilt).
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

// tally adds the SAT decisions and conflicts b took since it stood at
// (d0, c0) to the solver's counts.
func (s *Solver) tally(b *coreBackend, d0, c0 int64) {
	d1, c1 := b.b.s.Stats()
	s.decisions.Add(d1 - d0)
	s.conflicts.Add(c1 - c0)
}

// oneShot decides the conjunction of live on a private backend, with
// the constraints asserted as unit clauses, and returns the model of
// a VSat verdict.
func (s *Solver) oneShot(live []*expr.Expr) (Verdict, map[string]uint32) {
	b := s.newBackend()
	for _, c := range live {
		b.Assert(c)
	}
	v := b.Solve()
	s.tally(b, 0, 0)
	if v == VSat {
		return v, b.Model()
	}
	return v, nil
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

// Satisfiable reports whether the conjunction of the given width-1
// constraints has a model.
func (s *Solver) Satisfiable(constraints []*expr.Expr) bool {
	s.queries.Add(1)
	live, unsat := liveConstraints(constraints)
	if unsat {
		return false
	}
	if len(live) == 0 {
		return true
	}
	fp := fingerprint(live)
	if r, ok := s.cacheGet(fp); ok {
		s.hits.Add(1)
		return r
	}
	sig := querySig(live)
	if m, ok := s.trySat(sig, live); ok {
		s.modelHits.Add(1)
		s.cachePut(fp, true)
		s.rememberModel(fp, m)
		return true
	}
	if s.tryUnsat(live) {
		s.modelHits.Add(1)
		s.cachePut(fp, false)
		return false
	}
	switch v, model := s.oneShot(live); v {
	case VSat:
		s.storeModel(fp, sig, model)
		s.cachePut(fp, true)
		return true
	case VUnsat:
		s.storeUnsat(live)
		s.cachePut(fp, false)
		return false
	default:
		// Aborted: "unknown" answered as UNSAT, never cached.
		return false
	}
}

// MayBeTrue reports whether cond can be true under the path
// constraints: SAT(pc ∧ cond). The path condition is sliced to the
// constraints relevant to cond first; the sliced prefix lives on a
// shared backend session as a stack of root literals, so sibling
// states after a fork share the common prefix, and the roots and cond
// are decided as assumptions (SolveUnder), so a branch's two queries
// (cond, ¬cond) and consecutive branches over the same variables share
// translation work and learnt clauses.
func (s *Solver) MayBeTrue(pc []*expr.Expr, cond *expr.Expr) bool {
	s.queries.Add(1)
	prefix, unsat := liveConstraints(Slice(pc, cond))
	if unsat || cond.IsFalse() {
		return false
	}
	full := prefix
	if !cond.IsTrue() {
		full = append(prefix[:len(prefix):len(prefix)], cond)
	}
	if len(full) == 0 {
		return true
	}
	fp := fingerprint(full)
	if r, ok := s.cacheGet(fp); ok {
		s.hits.Add(1)
		return r
	}
	sig := querySig(full)
	if m, ok := s.trySat(sig, full); ok {
		s.modelHits.Add(1)
		s.cachePut(fp, true)
		s.rememberModel(fp, m)
		return true
	}
	if s.tryUnsat(full) {
		s.modelHits.Add(1)
		s.cachePut(fp, false)
		return false
	}
	var q *expr.Expr
	if !cond.IsTrue() {
		q = cond
	}
	v, model := s.solveSession(prefix, q)
	switch v {
	case VSat:
		s.storeModel(fp, sig, model)
		s.cachePut(fp, true)
		return true
	case VUnsat:
		s.storeUnsat(full)
		s.cachePut(fp, false)
		return false
	default:
		// Aborted: never cached.
		return false
	}
}

// solveSession decides SAT(prefix ∧ cond) on the shared session. The
// session's root stack is synchronized with the prefix: truncate to
// the longest common prefix, blast the suffix and push its roots.
// After a fork, the two children differ only in their last
// constraint, so the whole shared prefix — its CNF and its learnt
// clauses — is reused instead of rebuilt.
func (s *Solver) solveSession(prefix []*expr.Expr, cond *expr.Expr) (Verdict, map[string]uint32) {
	s.incMu.Lock()
	defer s.incMu.Unlock()
	sess := s.inc
	if sess == nil {
		sess = &session{b: s.newBackend()}
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
	s.tally(sess.b, d0, c0)
	if v == VSat {
		return v, sess.b.Model()
	}
	return v, nil
}

// MustBeTrue reports whether cond is implied by the path constraints:
// UNSAT(pc ∧ ¬cond).
func (s *Solver) MustBeTrue(pc []*expr.Expr, cond *expr.Expr) bool {
	return !s.MayBeTrue(pc, s.ar.Not(cond))
}

// Model returns a satisfying assignment for the constraints, or ok =
// false if they are unsatisfiable. Variables not mentioned in the
// constraints may be absent from the model (expr.Eval treats missing
// variables as zero); a reused cached witness can mention extra
// variables, which evaluation ignores. Models are cached beside the
// sat/unsat verdicts: re-asking for the model of a known constraint
// set costs a fingerprint probe.
func (s *Solver) Model(constraints []*expr.Expr) (map[string]uint32, bool) {
	s.queries.Add(1)
	live, unsat := liveConstraints(constraints)
	if unsat {
		return nil, false
	}
	if len(live) == 0 {
		return map[string]uint32{}, true
	}
	fp := fingerprint(live)
	if m, ok := s.modelGet(fp); ok {
		s.modelHits.Add(1)
		return copyModel(m), true
	}
	if r, ok := s.cacheGet(fp); ok && !r {
		s.hits.Add(1)
		return nil, false
	}
	sig := querySig(live)
	if m, ok := s.trySat(sig, live); ok {
		s.modelHits.Add(1)
		s.cachePut(fp, true)
		s.rememberModel(fp, m)
		return copyModel(m), true
	}
	if s.tryUnsat(live) {
		s.modelHits.Add(1)
		s.cachePut(fp, false)
		return nil, false
	}
	switch v, model := s.oneShot(live); v {
	case VSat:
		s.cachePut(fp, true)
		s.storeModel(fp, sig, model)
		return copyModel(model), true
	case VUnsat:
		s.cachePut(fp, false)
		s.storeUnsat(live)
		return nil, false
	default:
		return nil, false
	}
}

func copyModel(m map[string]uint32) map[string]uint32 {
	out := make(map[string]uint32, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Concretize returns a concrete value e can take under the path
// constraints, plus ok=false if the constraints are unsatisfiable.
// This implements the address/value concretization RevNIC applies to
// symbolic memory addresses and to OS-visible values.
func (s *Solver) Concretize(pc []*expr.Expr, e *expr.Expr) (uint32, bool) {
	if v, ok := e.IsConst(); ok {
		return v, true
	}
	// Only the constraints touching e's variables can restrict its
	// value; independent ones are satisfiable separately.
	model, ok := s.Model(Slice(pc, e))
	if !ok {
		return 0, false
	}
	return expr.Eval(e, model), true
}

// Values enumerates up to max distinct concrete values e can take
// under the path constraints, in the order the solver discovers them.
// This implements the jump-table enumeration of §3.4: "Since there
// are typically only a few concrete values, RevNIC generates all of
// them and forks the execution for each such value."
func (s *Solver) Values(pc []*expr.Expr, e *expr.Expr, max int) []uint32 {
	if v, ok := e.IsConst(); ok {
		return []uint32{v}
	}
	var out []uint32
	cons := Slice(pc, e)
	for len(out) < max {
		model, ok := s.Model(cons)
		if !ok {
			break
		}
		v := expr.Eval(e, model)
		out = append(out, v)
		cons = append(cons, s.ar.Not(s.ar.Eq(e, s.ar.C(v, e.Width))))
	}
	return out
}
