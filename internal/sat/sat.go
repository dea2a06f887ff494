// Package sat implements a CDCL (conflict-driven clause learning)
// boolean satisfiability solver in the MiniSat lineage: two-literal
// watching, first-UIP conflict analysis, VSIDS-style variable activity
// with phase saving, and geometric restarts.
//
// Branching follows a total order — higher activity first, ties to
// the lower variable index — which makes every pick, and therefore
// every model, a pure function of the search history. The order is
// kept in two tiers:
//
//   - a binary max-heap holds the variables whose activity is
//     positive, so picking among bumped variables costs O(log n);
//   - variables of activity 0 never enter the heap. They all tie, so
//     their order is plain index order, walked by a cursor.
//
// Any positive activity outranks 0, so the heap's top, while it holds
// an unassigned variable, is the pick; otherwise the cursor's lowest
// unassigned index is. Incremental sessions keep every bit-blasted
// gate variable and decide all of them on every query, but conflicts
// bump only a few, so the heap stays small and most decisions cost a
// cursor step. Assigned variables leave the heap lazily (when they
// surface at the top) and return when backtracking unassigns them.
//
// It is the decision procedure underneath RevNIC's bitvector
// constraint solver (package solver), standing in for the STP solver
// KLEE uses in the original system.
//
// Long-lived incremental sessions keep learning: an activity-based
// learnt-clause deletion policy (SetLearntCap) bounds the database so
// session memory stays flat over arbitrarily many queries.
package sat

import "sort"

// Lit is a literal: a variable index with a sign. Variables are
// numbered from 0; the literal for variable v is Pos(v) or Neg(v).
type Lit uint32

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1 | 1) }

// Var returns the variable of the literal.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 != 0 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

type clause struct {
	lits   []Lit
	learnt bool
	// act is the VSIDS-style clause activity: bumped whenever the
	// clause participates in conflict analysis, decayed geometrically.
	// Learnt-clause deletion discards the least active half when the
	// database exceeds the cap.
	act float64
}

type watcher struct {
	c       *clause
	blocker Lit
}

const noReason = -1

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New.
type Solver struct {
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by literal

	assigns  []lbool
	polarity []bool // saved phases
	level    []int
	reason   []*clause
	activity []float64
	varInc   float64
	// order is the branching heap: every unassigned variable of
	// positive activity (plus, lazily, some assigned ones), max-ordered
	// by (activity desc, index asc). orderPos[v] is v's slot in order,
	// or -1.
	order    []int32
	orderPos []int32
	// zeroNext is the zero-activity tier's cursor: every unassigned
	// variable of activity 0 has an index >= zeroNext.
	zeroNext int

	trail    []Lit
	trailLim []int
	qhead    int

	seen      []bool
	unsat     bool // a top-level conflict was derived
	conflicts int64
	decisions int64

	claInc    float64
	learntCap int
	deleted   int64

	// interrupt, when set, is polled periodically inside Solve and
	// SolveUnder; returning true aborts the search (see SetInterrupt).
	interrupt   func() bool
	interrupted bool
	polls       int64

	// scopes holds the selector variable of each open assumption
	// scope (see Push). Clauses added through AddScoped while a scope
	// is open carry the negation of its selector, and Solve/SolveUnder
	// assume every open selector true, so popping a scope retires its
	// clauses without touching the clause database.
	scopes []int
	// assumps is SolveUnder's reusable buffer for the open selectors
	// followed by the caller's assumptions.
	assumps []Lit
}

// DefaultLearntCap bounds the learnt-clause database. Incremental
// sessions live for a whole exploration and learn continuously; the
// cap keeps their memory bounded (ROADMAP: "sat learnt-clause
// databases grow without bound within a session"). Deletion never
// changes answers — learnt clauses are consequences of the input —
// only the amount of pruning retained.
const DefaultLearntCap = 10000

// New returns an empty solver with the default learnt-clause cap.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1, learntCap: DefaultLearntCap}
}

// SetInterrupt installs a cooperative stop check: f is polled every
// few hundred search-loop iterations inside Solve and SolveUnder, and
// when it returns true the search aborts, backtracks to level zero and
// returns false. An aborted answer means "unknown", not UNSAT —
// callers must consult Interrupted before caching or acting on it.
// The check never fires on its own and installing one that always
// returns false leaves search behavior (and answers) unchanged.
func (s *Solver) SetInterrupt(f func() bool) { s.interrupt = f }

// Interrupted reports whether the most recent Solve or SolveUnder was
// aborted by the interrupt check rather than decided.
func (s *Solver) Interrupted() bool { return s.interrupted }

// interruptNow polls the interrupt hook (amortized: the very first
// call is a real check — so a pre-fired interrupt aborts before any
// search happens — then one real check every 256 calls).
func (s *Solver) interruptNow() bool {
	if s.interrupt == nil {
		return false
	}
	s.polls++
	if s.polls&255 != 1 {
		return false
	}
	return s.interrupt()
}

// SetLearntCap bounds the learnt-clause database: when more than n
// learnt clauses accumulate, the least active (locked and binary
// clauses excepted) are deleted down to n/2. n < 0 disables deletion;
// n == 0 restores the default.
func (s *Solver) SetLearntCap(n int) {
	if n == 0 {
		n = DefaultLearntCap
	}
	s.learntCap = n
}

// NumLearnts reports the current learnt-clause count.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// DeletedLearnts reports how many learnt clauses activity-based
// deletion has discarded.
func (s *Solver) DeletedLearnts() int64 { return s.deleted }

// NewVar introduces a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.polarity = append(s.polarity, false)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	// A fresh variable has activity 0 and the highest index, so it
	// joins the zero tier behind the cursor without touching the heap.
	s.activity = append(s.activity, 0)
	s.orderPos = append(s.orderPos, -1)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return v
}

// NumVars returns the number of variables created so far.
func (s *Solver) NumVars() int { return len(s.assigns) }

// Unsat reports whether a top-level conflict has already been
// derived: the formula is unsatisfiable regardless of any further
// clauses or assumptions. Incremental callers use this to skip
// translating new queries into a poisoned instance.
func (s *Solver) Unsat() bool { return s.unsat }

// Stats returns the number of decisions and conflicts so far.
func (s *Solver) Stats() (decisions, conflicts int64) { return s.decisions, s.conflicts }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if l.Sign() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause over the given literals. It must be called
// before Solve at decision level zero. Returns false if the formula
// is already unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	// The stored clause keeps its literal slice: copy the caller's.
	return s.addClause(append(make([]Lit, 0, len(lits)), lits...))
}

// addClause is AddClause over a literal slice the solver may keep and
// simplify in place.
func (s *Solver) addClause(lits []Lit) bool {
	if s.unsat {
		return false
	}
	// Clauses may be added between Solve calls; discard any leftover
	// search assignments so simplification sees only level-0 facts.
	s.cancelUntil(0)
	// Sort-free simplification: drop false/duplicate literals, detect
	// tautologies and already-satisfied clauses. out only ever trails
	// the read position, so compacting in place is safe.
	out := lits[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
			}
			if o == l.Not() {
				taut = true
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watchClause(c)
	return true
}

// Push opens a new assumption scope. Clauses subsequently added with
// AddScoped belong to this scope: they are active for every Solve and
// SolveUnder call until the matching Pop, after which they are
// permanently retired. Scopes nest; Pop retires the most recent.
//
// The mechanism is the MiniSat assumption-selector idiom: each scope
// gets a fresh selector variable sel, scoped clauses carry ¬sel, and
// queries assume sel. Pop asserts the unit ¬sel, satisfying (hence
// deactivating) every clause of the scope, including any learnt
// clauses derived from it — those carry ¬sel literals inherited
// through conflict analysis, so learning across scopes stays sound.
func (s *Solver) Push() {
	s.scopes = append(s.scopes, s.NewVar())
}

// Pop retires the most recent open scope (see Push). It panics if no
// scope is open.
func (s *Solver) Pop() {
	if len(s.scopes) == 0 {
		panic("sat: Pop without matching Push")
	}
	sel := s.scopes[len(s.scopes)-1]
	s.scopes = s.scopes[:len(s.scopes)-1]
	if s.unsat {
		return
	}
	// The positive selector literal only ever appears as an assumption,
	// never inside a clause, so asserting ¬sel can satisfy clauses but
	// never conflict.
	s.AddClause(Neg(sel))
}

// ScopeDepth reports the number of open assumption scopes.
func (s *Solver) ScopeDepth() int { return len(s.scopes) }

// AddScoped adds a clause bound to the innermost open scope: it is
// active until that scope is popped. With no scope open it behaves
// exactly like AddClause. Returns false if the formula is already
// unsatisfiable at the top level.
func (s *Solver) AddScoped(lits ...Lit) bool {
	if len(s.scopes) == 0 {
		return s.AddClause(lits...)
	}
	sel := s.scopes[len(s.scopes)-1]
	return s.addClause(append(append(make([]Lit, 0, len(lits)+1), lits...), Neg(sel)))
}

func (s *Solver) watchClause(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting
// clause, or nil if no conflict arises.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict != nil {
				kept = append(kept, w)
				continue
			}
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			// Normalize so lits[0] is the other watched literal.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, first})
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == lFalse {
				conflict = c
				s.qhead = len(s.trail)
			} else {
				s.uncheckedEnqueue(first, c)
			}
		}
		s.watches[p] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling keeps the order but rounding and underflow can create
		// new ties, which must go to the lower index, and underflow can
		// return heap variables to activity 0: rebuild both tiers.
		s.reorder()
		return
	}
	if i := s.orderPos[v]; i >= 0 {
		s.siftUp(i)
	} else if s.assigns[v] == lUndef {
		s.heapInsert(v)
	}
}

// reorder rebuilds both branching tiers from the activities: the heap
// from every unassigned variable of positive activity, and the cursor
// from index 0.
func (s *Solver) reorder() {
	s.order = s.order[:0]
	for v, a := range s.activity {
		s.orderPos[v] = -1
		if a > 0 && s.assigns[v] == lUndef {
			s.orderPos[v] = int32(len(s.order))
			s.order = append(s.order, int32(v))
		}
	}
	s.heapify()
	s.zeroNext = 0
}

// before reports whether variable a outranks b in the branching
// order: higher activity first, ties to the lower index.
func (s *Solver) before(a, b int32) bool {
	aa, ab := s.activity[a], s.activity[b]
	return aa > ab || aa == ab && a < b
}

func (s *Solver) siftUp(i int32) {
	v := s.order[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(v, s.order[p]) {
			break
		}
		s.order[i] = s.order[p]
		s.orderPos[s.order[i]] = i
		i = p
	}
	s.order[i] = v
	s.orderPos[v] = i
}

func (s *Solver) siftDown(i int32) {
	v := s.order[i]
	n := int32(len(s.order))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.before(s.order[c+1], s.order[c]) {
			c++
		}
		if !s.before(s.order[c], v) {
			break
		}
		s.order[i] = s.order[c]
		s.orderPos[s.order[i]] = i
		i = c
	}
	s.order[i] = v
	s.orderPos[v] = i
}

func (s *Solver) heapify() {
	for i := int32(len(s.order))/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// heapInsert returns v to the branching heap if it is not there.
func (s *Solver) heapInsert(v int) {
	if s.orderPos[v] >= 0 {
		return
	}
	i := int32(len(s.order))
	s.order = append(s.order, int32(v))
	s.siftUp(i)
}

// heapPop removes and returns the top of the branching heap.
func (s *Solver) heapPop() int {
	top := s.order[0]
	last := s.order[len(s.order)-1]
	s.order = s.order[:len(s.order)-1]
	s.orderPos[top] = -1
	if len(s.order) > 0 {
		s.order[0] = last
		s.siftDown(0)
	}
	return int(top)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// locked reports whether c is the reason of a current assignment and
// therefore must survive deletion.
func (s *Solver) locked(c *clause) bool {
	return s.value(c.lits[0]) == lTrue && s.reason[c.lits[0].Var()] == c
}

// detachClause removes c's two watchers.
func (s *Solver) detachClause(c *clause) {
	for _, wl := range [2]Lit{c.lits[0].Not(), c.lits[1].Not()} {
		ws := s.watches[wl]
		for i := range ws {
			if ws[i].c == c {
				s.watches[wl] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
}

// maybeReduce runs activity-based learnt-clause deletion when the
// database exceeds the cap: the least active half goes, except locked
// clauses (reasons of current assignments) and binary clauses, which
// are cheap to keep and expensive to relearn. Deleting learnt clauses
// never changes satisfiability — they are consequences of the input
// clauses — so the cap bounds memory without affecting answers.
func (s *Solver) maybeReduce() {
	if s.learntCap <= 0 || len(s.learnts) <= s.learntCap {
		return
	}
	byAct := make([]*clause, len(s.learnts))
	copy(byAct, s.learnts)
	sort.SliceStable(byAct, func(i, j int) bool { return byAct[i].act < byAct[j].act })
	goal := len(s.learnts) - s.learntCap/2
	doomed := make(map[*clause]bool, goal)
	for _, c := range byAct {
		if len(doomed) >= goal {
			break
		}
		if len(c.lits) <= 2 || s.locked(c) {
			continue
		}
		doomed[c] = true
	}
	if len(doomed) == 0 {
		return
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if doomed[c] {
			s.detachClause(c)
		} else {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	s.deleted += int64(len(doomed))
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for the asserting literal
	counter := 0
	var p Lit
	haveP := false
	idx := len(s.trail) - 1
	c := conflict

	for {
		if c.learnt {
			s.bumpClause(c)
		}
		start := 0
		if haveP {
			start = 1 // lits[0] is p itself
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Walk the trail backwards to the next marked literal.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		haveP = true
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[v]
	}
	learnt[0] = p.Not()

	// Compute backtrack level: the highest level among the other
	// literals, moved to position 1 for watching.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	for _, l := range learnt {
		s.seen[l.Var()] = false
	}
	s.varInc *= 1.05
	s.claInc *= 1.001
	return learnt, btLevel
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = nil
		if s.activity[v] > 0 {
			s.heapInsert(v)
		} else if v < s.zeroNext {
			s.zeroNext = v
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// pickBranch is the branching rule Solve and SolveUnder call. It is a
// variable only so the package tests can drive the search with a
// reference linear scan and check the heap against it.
var pickBranch = (*Solver).pickBranchVar

// pickBranchVar returns the unassigned variable with the highest
// activity (ties to the lowest index), or -1 if all variables are
// assigned. The heap tier answers while it holds an unassigned
// variable: every one there outranks every activity-0 variable.
// Assigned variables met at the top of the heap are dropped;
// cancelUntil reinserts them when it unassigns them. Once the heap is
// empty every unassigned variable has activity 0, and the lowest index
// among them wins the tie: the cursor steps past assigned variables to
// it.
func (s *Solver) pickBranchVar() int {
	// The trail holds exactly the assigned variables. A full trail ends
	// the search without draining the heap entry by entry, and the
	// entries left behind spare cancelUntil their reinsertion. Otherwise
	// some variable is unassigned, so the cursor loop ends in bounds.
	if len(s.trail) == len(s.assigns) {
		return -1
	}
	for len(s.order) > 0 {
		if v := s.heapPop(); s.assigns[v] == lUndef {
			return v
		}
	}
	for s.assigns[s.zeroNext] != lUndef {
		s.zeroNext++
	}
	return s.zeroNext
}

// Solve determines satisfiability of the accumulated clauses. After a
// true result, Value reports the satisfying assignment. Solve may be
// called repeatedly after adding more clauses (incremental use). With
// open scopes, satisfiability is decided with all scoped clauses
// active (equivalent to SolveUnder with no extra assumptions).
func (s *Solver) Solve() bool {
	if len(s.scopes) > 0 {
		return s.SolveUnder()
	}
	s.interrupted = false
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	restartLimit := int64(100)
	conflictsAtRestart := s.conflicts
	for {
		if s.interruptNow() {
			s.interrupted = true
			s.cancelUntil(0)
			return false
		}
		conflict := s.propagate()
		if conflict != nil {
			s.conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return false
			}
			learnt, btLevel := s.analyze(conflict)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.watchClause(c)
				// Bump after appending so a rescale triggered by the
				// bump scales this clause along with the rest.
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.maybeReduce()
			if s.conflicts-conflictsAtRestart >= restartLimit {
				restartLimit += restartLimit / 2
				conflictsAtRestart = s.conflicts
				s.cancelUntil(0)
			}
			continue
		}
		v := pickBranch(s)
		if v < 0 {
			return true // all variables assigned, no conflict
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := Pos(v)
		if !s.polarity[v] {
			l = Neg(v)
		}
		s.uncheckedEnqueue(l, nil)
	}
}

// SolveUnder determines satisfiability under the given assumption
// literals without permanently asserting them. It is used by the
// bitvector solver for cached incremental queries. Clauses of open
// scopes are active: their selectors are assumed ahead of the given
// assumptions.
func (s *Solver) SolveUnder(assumptions ...Lit) bool {
	s.interrupted = false
	if s.unsat {
		return false
	}
	if len(s.scopes) > 0 {
		all := s.assumps[:0]
		for _, sel := range s.scopes {
			all = append(all, Pos(sel))
		}
		assumptions = append(all, assumptions...)
		s.assumps = assumptions
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	for _, a := range assumptions {
		switch s.value(a) {
		case lTrue:
			continue
		case lFalse:
			s.cancelUntil(0)
			return false
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(a, nil)
		if s.propagate() != nil {
			s.cancelUntil(0)
			return false
		}
	}
	assumptionLevel := s.decisionLevel()
	restartLimit := int64(100)
	conflictsAtRestart := s.conflicts
	for {
		if s.interruptNow() {
			s.interrupted = true
			s.cancelUntil(0)
			return false
		}
		conflict := s.propagate()
		if conflict != nil {
			s.conflicts++
			if s.decisionLevel() <= assumptionLevel {
				s.cancelUntil(0)
				return false
			}
			learnt, btLevel := s.analyze(conflict)
			if btLevel < assumptionLevel {
				btLevel = assumptionLevel
			}
			s.cancelUntil(btLevel)
			switch s.value(learnt[0]) {
			case lFalse:
				// The asserting literal is contradicted by the
				// assumptions themselves: UNSAT under assumptions.
				s.cancelUntil(0)
				return false
			case lTrue:
				// Already satisfied at or below the assumption level;
				// record the clause and keep searching.
				if len(learnt) > 1 {
					c := &clause{lits: learnt, learnt: true}
					s.learnts = append(s.learnts, c)
					s.watchClause(c)
					s.bumpClause(c)
					s.maybeReduce()
				}
				continue
			}
			if len(learnt) == 1 {
				// Unit: permanent at level 0, otherwise implied for
				// the remainder of this assumption query.
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt, learnt: true}
				s.learnts = append(s.learnts, c)
				s.watchClause(c)
				// Bump after appending so a rescale triggered by the
				// bump scales this clause along with the rest.
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.maybeReduce()
			if s.conflicts-conflictsAtRestart >= restartLimit {
				restartLimit += restartLimit / 2
				conflictsAtRestart = s.conflicts
				s.cancelUntil(assumptionLevel)
			}
			continue
		}
		v := pickBranch(s)
		if v < 0 {
			return true
		}
		s.decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		l := Pos(v)
		if !s.polarity[v] {
			l = Neg(v)
		}
		s.uncheckedEnqueue(l, nil)
	}
}

// Value reports the model value of variable v after a successful
// Solve. Unassigned variables (possible when the formula does not
// constrain them) report false.
func (s *Solver) Value(v int) bool { return s.assigns[v] == lTrue }
