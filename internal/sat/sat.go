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
// unassigned index is. Conflicts bump only a few variables, so the
// heap stays small and most decisions cost a cursor step. Assigned
// variables leave the heap lazily (when they surface at the top) and
// return when backtracking unassigns them.
//
// Incremental sessions keep every bit-blasted gate variable, but a
// query need not decide them all: after Restrict, SolveUnder branches
// only on the variables marked as the query's cone, in the same order,
// and path constraints arrive as assumption literals, so nothing is
// ever retracted from the clause database.
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

// Clauses live in one flat arena, MiniSat style (Eén & Sörensson, "An
// Extensible SAT-solver"): a clause is a uint32 offset into the arena,
// where a two-word header precedes its literals. The first header word
// is size<<2 | deleted<<1 | learnt; the second is a learnt clause's
// slot in learnts and clauseAct. No clause is a pointer object, so the
// watch lists and reasons hold no pointers for the GC to scan.
const (
	clauseHdr      = 2
	hdrLearnt  Lit = 1
	hdrDeleted Lit = 2
)

// noClause is the reason of a decision, an assumption or a level-0
// unit, and propagate's "no conflict".
const noClause = ^uint32(0)

type watcher struct {
	c       uint32
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; create
// instances with New.
type Solver struct {
	arena   []Lit
	learnts []uint32 // learnt clauses, oldest first
	// clauseAct is the VSIDS-style activity of each learnt clause (by
	// its slot in learnts): bumped whenever the clause participates in
	// conflict analysis, decayed geometrically. Learnt-clause deletion
	// discards the least active half when the database exceeds the cap.
	clauseAct []float64
	watches   [][]watcher // indexed by literal

	assigns  []lbool
	polarity []bool // saved phases
	level    []int
	reason   []uint32 // noClause for decisions, assumptions and units
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
	addBuf    []Lit // AddClause's simplification buffer
	learntBuf []Lit // analyze's learnt-clause buffer
	unsat     bool  // a top-level conflict was derived
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

	// The decision set of a restricted SolveUnder (see Restrict): v is
	// in it iff mark[v] == epoch. restricted says the next SolveUnder
	// branches within it; aside collects the unmarked variables its
	// picks pop off the heap, for reinsertion once it returns.
	mark       []uint32
	epoch      uint32
	restricted bool
	aside      []int32
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
	s.reason = append(s.reason, noClause)
	// A fresh variable has activity 0 and the highest index, so it
	// joins the zero tier behind the cursor without touching the heap.
	s.activity = append(s.activity, 0)
	s.orderPos = append(s.orderPos, -1)
	s.seen = append(s.seen, false)
	s.mark = append(s.mark, 0)
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
	if s.unsat {
		return false
	}
	// Clauses may be added between Solve calls; discard any leftover
	// search assignments so simplification sees only level-0 facts.
	s.cancelUntil(0)
	out, satisfied := s.simplify(lits)
	if satisfied {
		return true
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noClause)
		if s.propagate() != noClause {
			s.unsat = true
			return false
		}
		return true
	}
	s.watchClause(s.alloc(out, false))
	return true
}

// simplify is AddClause's sort-free simplification into the reusable
// buffer: it drops false and duplicate literals and reports whether
// the clause is a tautology or already satisfied.
func (s *Solver) simplify(lits []Lit) (out []Lit, satisfied bool) {
	out = s.addBuf[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return nil, true
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l.Not() {
				return nil, true
			}
			if o == l {
				dup = true
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addBuf = out
	return out, false
}

// alloc copies lits into the arena as a new clause and returns its
// offset. A learnt clause also takes the next slot of learnts and
// clauseAct, at activity 0.
func (s *Solver) alloc(lits []Lit, learnt bool) uint32 {
	c := len(s.arena)
	if uint64(c)+clauseHdr+uint64(len(lits)) >= uint64(noClause) {
		panic("sat: clause arena exceeds 4G literals")
	}
	hdr, slot := Lit(len(lits))<<2, Lit(0)
	if learnt {
		hdr |= hdrLearnt
		slot = Lit(len(s.learnts))
		s.learnts = append(s.learnts, uint32(c))
		s.clauseAct = append(s.clauseAct, 0)
	}
	s.arena = append(s.arena, hdr, slot)
	s.arena = append(s.arena, lits...)
	return uint32(c)
}

// lits returns the literals of clause c, aliasing the arena.
func (s *Solver) lits(c uint32) []Lit {
	n := uint32(s.arena[c] >> 2)
	return s.arena[c+clauseHdr : c+clauseHdr+n]
}

func (s *Solver) isLearnt(c uint32) bool { return s.arena[c]&hdrLearnt != 0 }

func (s *Solver) watchClause(c uint32) {
	lits := s.lits(c)
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{c, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from uint32) {
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
// clause, or noClause if no conflict arises.
func (s *Solver) propagate() uint32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		conflict := noClause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict != noClause {
				kept = append(kept, w)
				continue
			}
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			lits := s.lits(c)
			// Normalize so lits[0] is the other watched literal.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, first})
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
		if conflict != noClause {
			return conflict
		}
	}
	return noClause
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

// bumpClause bumps learnt clause c's activity.
func (s *Solver) bumpClause(c uint32) {
	act := &s.clauseAct[s.arena[c+1]]
	*act += s.claInc
	if *act > 1e20 {
		for i := range s.clauseAct {
			s.clauseAct[i] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// locked reports whether c is the reason of a current assignment and
// therefore must survive deletion.
func (s *Solver) locked(c uint32) bool {
	first := s.lits(c)[0]
	return s.value(first) == lTrue && s.reason[first.Var()] == c
}

// learn stores the learnt clause lits (asserting literal first) and
// bumps it. Bumping after the append lets a rescale the bump triggers
// scale this clause along with the rest.
func (s *Solver) learn(lits []Lit) uint32 {
	c := s.alloc(lits, true)
	s.watchClause(c)
	s.bumpClause(c)
	return c
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
	byAct := make([]int, len(s.learnts))
	for i := range byAct {
		byAct[i] = i
	}
	sort.SliceStable(byAct, func(i, j int) bool { return s.clauseAct[byAct[i]] < s.clauseAct[byAct[j]] })
	goal := len(s.learnts) - s.learntCap/2
	doomed := 0
	for _, i := range byAct {
		if doomed >= goal {
			break
		}
		c := s.learnts[i]
		if s.arena[c]>>2 <= 2 || s.locked(c) {
			continue
		}
		s.arena[c] |= hdrDeleted
		doomed++
	}
	if doomed == 0 {
		return
	}
	for l, ws := range s.watches {
		kept := ws[:0]
		for _, w := range ws {
			if s.arena[w.c]&hdrDeleted == 0 {
				kept = append(kept, w)
			}
		}
		s.watches[l] = kept
	}
	s.compact()
	s.deleted += int64(doomed)
}

// compact squeezes the deleted clauses out of the arena, so memory
// stays bounded by the live clauses, and renumbers every reference:
// watchers, reasons, learnts and the activity slots. Live clauses
// keep their order, and the learnt list its order, so compaction
// changes no later search step.
func (s *Solver) compact() {
	// from[i] moved to to[i]; clauses below from[0] stay put.
	var from, to []uint32
	acts := s.clauseAct[:0]
	s.learnts = s.learnts[:0]
	w := uint32(0)
	for r := uint32(0); r < uint32(len(s.arena)); {
		hdr := s.arena[r]
		n := clauseHdr + uint32(hdr>>2)
		if hdr&hdrDeleted == 0 {
			if hdr&hdrLearnt != 0 {
				// Slots only shrink, so acts never overtakes the slot it reads.
				acts = append(acts, s.clauseAct[s.arena[r+1]])
				s.arena[r+1] = Lit(len(s.learnts))
				s.learnts = append(s.learnts, w)
			}
			if w != r {
				copy(s.arena[w:], s.arena[r:r+n])
				from, to = append(from, r), append(to, w)
			}
			w += n
		}
		r += n
	}
	s.arena = s.arena[:w]
	s.clauseAct = acts
	if len(from) == 0 {
		return
	}
	reloc := func(c uint32) uint32 {
		if i := sort.Search(len(from), func(i int) bool { return from[i] >= c }); i < len(from) && from[i] == c {
			return to[i]
		}
		return c
	}
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].c = reloc(ws[i].c)
		}
	}
	for _, l := range s.trail {
		if v := l.Var(); s.reason[v] != noClause {
			s.reason[v] = reloc(s.reason[v])
		}
	}
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict uint32) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	counter := 0
	var p Lit
	haveP := false
	idx := len(s.trail) - 1
	c := conflict

	for {
		if s.isLearnt(c) {
			s.bumpClause(c)
		}
		start := 0
		if haveP {
			start = 1 // lits[0] is p itself
		}
		for _, q := range s.lits(c)[start:] {
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
	s.learntBuf = learnt
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
		s.reason[v] = noClause
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
	if s.restricted {
		return s.pickMarked()
	}
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

// pickMarked is pickBranchVar within a restricted search's decision
// set, or -1 once every marked variable is assigned. Unmarked
// variables met at the top of the heap are set aside, and the cursor
// steps past them.
func (s *Solver) pickMarked() int {
	for len(s.order) > 0 {
		v := s.heapPop()
		if s.assigns[v] != lUndef {
			continue
		}
		if s.mark[v] == s.epoch {
			return v
		}
		s.aside = append(s.aside, int32(v))
	}
	for ; s.zeroNext < len(s.assigns); s.zeroNext++ {
		if v := s.zeroNext; s.assigns[v] == lUndef && s.mark[v] == s.epoch {
			return v
		}
	}
	return -1
}

// Solve determines satisfiability of the accumulated clauses. After a
// true result, Value reports the satisfying assignment. Solve may be
// called repeatedly after adding more clauses (incremental use).
func (s *Solver) Solve() bool {
	s.interrupted = false
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != noClause {
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
		if conflict != noClause {
			s.conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return false
			}
			learnt, btLevel := s.analyze(conflict)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noClause)
			} else {
				s.uncheckedEnqueue(learnt[0], s.learn(learnt))
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
		s.uncheckedEnqueue(l, noClause)
	}
}

// Restrict opens an empty decision set for the next SolveUnder; Mark
// adds variables to it. That SolveUnder branches only on marked
// variables, picked by the usual order among them, and answers SAT
// once every marked variable is assigned without conflict; unmarked
// variables stay unassigned unless propagation sets them. This is
// sound when the marked set is closed under definitions: every
// variable outside it is a total function (through definitional
// clauses) of inputs that are free or marked, so any conflict-free
// assignment of the set extends to a full model. Value answers for
// the marked variables from that assignment.
func (s *Solver) Restrict() {
	s.restricted = true
	s.epoch++
	if s.epoch == 0 {
		clear(s.mark)
		s.epoch = 1
	}
}

// Mark adds v to the decision set opened by Restrict and reports
// whether it was new. It allocates nothing.
func (s *Solver) Mark(v int) bool {
	if s.mark[v] == s.epoch {
		return false
	}
	s.mark[v] = s.epoch
	return true
}

// SolveUnder determines satisfiability under the given assumption
// literals without permanently asserting them. It is used by the
// bitvector solver for its incremental session: the path constraints
// and the branch condition are all assumptions. After Restrict it
// branches only on the marked variables.
func (s *Solver) SolveUnder(assumptions ...Lit) bool {
	if !s.restricted {
		return s.solveUnder(assumptions)
	}
	ok := s.solveUnder(assumptions)
	s.restricted = false
	for _, v := range s.aside {
		if s.activity[v] > 0 {
			s.heapInsert(int(v))
		}
	}
	s.aside = s.aside[:0]
	// The cursor stepped past unmarked activity-0 variables it left
	// unassigned: restart it below all of them.
	s.zeroNext = 0
	return ok
}

func (s *Solver) solveUnder(assumptions []Lit) bool {
	s.interrupted = false
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != noClause {
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
		s.uncheckedEnqueue(a, noClause)
		if s.propagate() != noClause {
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
		if conflict != noClause {
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
					s.learn(learnt)
					s.maybeReduce()
				}
				continue
			}
			if len(learnt) == 1 {
				// Unit: permanent at level 0, otherwise implied for
				// the remainder of this assumption query.
				s.uncheckedEnqueue(learnt[0], noClause)
			} else {
				s.uncheckedEnqueue(learnt[0], s.learn(learnt))
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
		s.uncheckedEnqueue(l, noClause)
	}
}

// Value reports the model value of variable v after a successful
// Solve or SolveUnder. A variable a restricted search left unassigned
// reports its saved phase: the value the last search to assign it gave
// it, false if none did. The query does not constrain such a variable,
// and reading its phase keeps the models of successive queries alike,
// as they are when every search assigns every variable.
func (s *Solver) Value(v int) bool {
	if a := s.assigns[v]; a != lUndef {
		return a == lTrue
	}
	return s.polarity[v]
}
