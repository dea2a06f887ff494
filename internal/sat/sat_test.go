package sat

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestLitEncoding(t *testing.T) {
	p, n := Pos(5), Neg(5)
	if p.Var() != 5 || n.Var() != 5 || p.Sign() || !n.Sign() {
		t.Fatal("literal encoding broken")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatal("Not broken")
	}
}

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Pos(a)) || !s.Solve() {
		t.Fatal("single unit should be SAT")
	}
	if !s.Value(a) {
		t.Fatal("model should set a true")
	}
	if s.AddClause(Neg(a)) {
		t.Fatal("contradicting unit should fail")
	}
	if s.Solve() {
		t.Fatal("must stay UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause must be UNSAT")
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Neg(a))         // tautology: ignored
	s.AddClause(Pos(b), Pos(b), Pos(b)) // duplicates collapse to unit
	if !s.Solve() || !s.Value(b) {
		t.Fatal("want SAT with b=true")
	}
}

// pigeonhole(n) encodes n+1 pigeons into n holes: classically UNSAT
// and requires genuine clause learning to refute quickly.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]int, pigeons)
	for p := range vars {
		vars[p] = make([]int, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = Pos(vars[p][h])
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(Neg(vars[p1][h]), Neg(vars[p2][h]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	if s.Solve() {
		t.Fatal("PHP(6,5) must be UNSAT")
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if !s.Solve() {
		t.Fatal("PHP(5,5) must be SAT")
	}
}

// bruteForce decides satisfiability of a clause set over nVars
// variables by enumeration.
func bruteForce(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m>>l.Var()&1 == 1
				if val != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandomFormulas(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		nVars := 4 + r.Intn(9) // 4..12
		nClauses := 1 + r.Intn(6*nVars)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		addOK := true
		for i := 0; i < nClauses; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				addOK = false
				break
			}
		}
		want := bruteForce(nVars, clauses)
		var got bool
		if !addOK {
			got = false
		} else {
			got = s.Solve()
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
		if got {
			// Verify the model satisfies every clause.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Sign() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy %v", trial, c)
				}
			}
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		alive := true
		for round := 0; round < 6; round++ {
			for i := 0; i < 3; i++ {
				n := 1 + r.Intn(3)
				c := make([]Lit, n)
				for j := range c {
					v := r.Intn(nVars)
					if r.Intn(2) == 0 {
						c[j] = Pos(v)
					} else {
						c[j] = Neg(v)
					}
				}
				clauses = append(clauses, c)
				if !s.AddClause(c...) {
					alive = false
				}
			}
			got := alive && s.Solve()
			want := bruteForce(nVars, clauses)
			if got != want {
				t.Fatalf("trial %d round %d: incremental=%v brute=%v", trial, round, got, want)
			}
			if !want {
				break
			}
		}
	}
}

func TestAssumptionQueries(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b)) // a -> b
	s.AddClause(Neg(b), Pos(c)) // b -> c
	if !s.SolveUnder(Pos(a)) {
		t.Fatal("a alone should be SAT")
	}
	if s.SolveUnder(Pos(a), Neg(c)) {
		t.Fatal("a & !c contradicts the chain")
	}
	// Assumptions must not leak into later solves.
	if !s.SolveUnder(Neg(c)) {
		t.Fatal("!c alone should be SAT")
	}
	if !s.Solve() {
		t.Fatal("base formula still SAT")
	}
	_ = b
}

func TestRandomAssumptionQueries(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		ok := true
		for i := 0; i < 2*nVars; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		for q := 0; q < 5; q++ {
			var assumptions []Lit
			seen := map[int]bool{}
			for i := 0; i < 1+r.Intn(3); i++ {
				v := r.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if r.Intn(2) == 0 {
					assumptions = append(assumptions, Pos(v))
				} else {
					assumptions = append(assumptions, Neg(v))
				}
			}
			// Brute-force with assumptions as extra unit clauses.
			ref := append([][]Lit{}, clauses...)
			for _, a := range assumptions {
				ref = append(ref, []Lit{a})
			}
			want := bruteForce(nVars, ref)
			got := ok && s.SolveUnder(assumptions...)
			if got != want {
				t.Fatalf("trial %d query %d: got %v want %v (clauses %v assume %v)",
					trial, q, got, want, clauses, assumptions)
			}
		}
	}
}

func TestLearntDeletionBoundsDatabase(t *testing.T) {
	capped := New()
	capped.SetLearntCap(50)
	pigeonhole(capped, 7, 6)
	if capped.Solve() {
		t.Fatal("PHP(7,6) must be UNSAT")
	}
	if n := capped.NumLearnts(); n > 50 {
		t.Errorf("learnt database %d exceeds cap 50", n)
	}
	if capped.DeletedLearnts() == 0 {
		t.Error("expected activity-based deletion to fire on a conflict-heavy instance")
	}
}

func TestLearntDeletionPreservesAnswers(t *testing.T) {
	// Deleting learnt clauses only drops derived pruning; answers must
	// match brute force for every cap, including an aggressive one.
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		nVars := 4 + r.Intn(9)
		nClauses := 1 + r.Intn(6*nVars)
		s := New()
		s.SetLearntCap(4)
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		addOK := true
		for i := 0; i < nClauses; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				addOK = false
				break
			}
		}
		want := bruteForce(nVars, clauses)
		got := addOK && s.Solve()
		if got != want {
			t.Fatalf("trial %d: capped solver=%v brute=%v clauses=%v", trial, got, want, clauses)
		}
	}
}

func TestLearntDeletionUnderAssumptions(t *testing.T) {
	// Exercise the SolveUnder reduction path: repeated assumption
	// queries on one long-lived instance must stay correct while the
	// database is constantly trimmed (locked clauses survive).
	r := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 100; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		s.SetLearntCap(4)
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		ok := true
		for i := 0; i < 2*nVars; i++ {
			n := 1 + r.Intn(3)
			c := make([]Lit, n)
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				ok = false
				break
			}
		}
		for q := 0; q < 8; q++ {
			var assumptions []Lit
			seen := map[int]bool{}
			for i := 0; i < 1+r.Intn(3); i++ {
				v := r.Intn(nVars)
				if seen[v] {
					continue
				}
				seen[v] = true
				if r.Intn(2) == 0 {
					assumptions = append(assumptions, Pos(v))
				} else {
					assumptions = append(assumptions, Neg(v))
				}
			}
			ref := append([][]Lit{}, clauses...)
			for _, a := range assumptions {
				ref = append(ref, []Lit{a})
			}
			want := bruteForce(nVars, ref)
			got := ok && s.SolveUnder(assumptions...)
			if got != want {
				t.Fatalf("trial %d query %d: got %v want %v (clauses %v assume %v)",
					trial, q, got, want, clauses, assumptions)
			}
		}
	}
}

func TestScopedClauses(t *testing.T) {
	s := New()
	x := s.NewVar()
	if !s.AddClause(Pos(x)) {
		t.Fatal("base clause rejected")
	}
	if s.ScopeDepth() != 0 {
		t.Fatalf("ScopeDepth = %d, want 0", s.ScopeDepth())
	}
	s.Push()
	if s.ScopeDepth() != 1 {
		t.Fatalf("ScopeDepth = %d, want 1", s.ScopeDepth())
	}
	s.AddScoped(Neg(x))
	if s.Solve() {
		t.Fatal("SAT with contradictory scoped clause active")
	}
	if s.Unsat() {
		t.Fatal("scoped contradiction poisoned the solver globally")
	}
	s.Pop()
	if s.ScopeDepth() != 0 {
		t.Fatalf("ScopeDepth = %d, want 0 after Pop", s.ScopeDepth())
	}
	if !s.Solve() {
		t.Fatal("UNSAT after popping the contradictory scope")
	}
	if !s.Value(x) {
		t.Fatal("model lost the base clause")
	}
}

func TestScopeNesting(t *testing.T) {
	s := New()
	x, y := s.NewVar(), s.NewVar()
	s.AddClause(Pos(x), Pos(y))
	s.Push()
	s.AddScoped(Neg(x))
	s.Push()
	s.AddScoped(Neg(y))
	if s.Solve() {
		t.Fatal("SAT with both scopes active")
	}
	s.Pop() // drop ¬y
	if !s.Solve() {
		t.Fatal("UNSAT with only outer scope active")
	}
	if s.Value(x) || !s.Value(y) {
		t.Fatal("model violates active constraints")
	}
	s.Pop() // drop ¬x
	if !s.Solve() {
		t.Fatal("UNSAT with no scopes active")
	}
}

func TestPopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty scope stack did not panic")
		}
	}()
	New().Pop()
}

func TestAddScopedWithoutScope(t *testing.T) {
	s := New()
	x := s.NewVar()
	s.AddScoped(Pos(x))
	if !s.Solve() || !s.Value(x) {
		t.Fatal("AddScoped without open scope must behave like AddClause")
	}
}

// TestScopedRandom checks push/pop semantics against brute force: a
// random base formula plus a random scoped layer must answer like the
// conjunction while the scope is open and like the base alone after
// Pop — across repeated cycles on one solver instance, so learnt
// clauses from scoped conflicts must not leak into later queries.
func TestScopedRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	randClause := func(nVars int) []Lit {
		c := make([]Lit, 1+r.Intn(3))
		for j := range c {
			v := r.Intn(nVars)
			if r.Intn(2) == 0 {
				c[j] = Pos(v)
			} else {
				c[j] = Neg(v)
			}
		}
		return c
	}
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + r.Intn(7)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var base [][]Lit
		for i, n := 0, r.Intn(3*nVars); i < n; i++ {
			c := randClause(nVars)
			base = append(base, c)
			s.AddClause(c...)
		}
		baseWant := bruteForce(nVars, base)
		for cycle := 0; cycle < 4; cycle++ {
			s.Push()
			scoped := append([][]Lit(nil), base...)
			for i, n := 0, 1+r.Intn(2*nVars); i < n; i++ {
				c := randClause(nVars)
				scoped = append(scoped, c)
				s.AddScoped(c...)
			}
			if got, want := s.Solve(), bruteForce(nVars, scoped); got != want {
				t.Fatalf("trial %d cycle %d scoped: solver=%v brute=%v", trial, cycle, got, want)
			}
			s.Pop()
			if got := s.Solve(); got != baseWant {
				t.Fatalf("trial %d cycle %d after pop: solver=%v brute=%v", trial, cycle, got, baseWant)
			}
		}
	}
}

// TestScopedUnderAssumptions mixes open scopes with SolveUnder
// assumptions: the scoped layer must stay active and the assumptions
// must stay transient.
func TestScopedUnderAssumptions(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var all [][]Lit
		for i, n := 0, r.Intn(3*nVars); i < n; i++ {
			c := make([]Lit, 1+r.Intn(3))
			for j := range c {
				v := r.Intn(nVars)
				if r.Intn(2) == 0 {
					c[j] = Pos(v)
				} else {
					c[j] = Neg(v)
				}
			}
			all = append(all, c)
			if r.Intn(2) == 0 {
				s.AddClause(c...)
			} else {
				if s.ScopeDepth() == 0 {
					s.Push()
				}
				s.AddScoped(c...)
			}
		}
		for q := 0; q < 4; q++ {
			a := Pos(r.Intn(nVars))
			if r.Intn(2) == 0 {
				a = a.Not()
			}
			want := bruteForce(nVars, append(append([][]Lit(nil), all...), []Lit{a}))
			if got := s.SolveUnder(a); got != want {
				t.Fatalf("trial %d q %d: solver=%v brute=%v under %v", trial, q, got, want, a)
			}
		}
	}
}

// TestScopedLearntDeletion exercises push/pop under a tiny learnt cap:
// deletion plus scope retirement must not change answers.
func TestScopedLearntDeletion(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := New()
	s.SetLearntCap(8)
	nVars := 10
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	var base [][]Lit
	for i := 0; i < 12; i++ {
		c := []Lit{Pos(r.Intn(nVars)), Neg(r.Intn(nVars)), Pos(r.Intn(nVars))}
		base = append(base, c)
		s.AddClause(c...)
	}
	baseWant := bruteForce(nVars, base)
	for cycle := 0; cycle < 12; cycle++ {
		s.Push()
		scoped := append([][]Lit(nil), base...)
		for i := 0; i < 6; i++ {
			c := []Lit{Pos(r.Intn(nVars)), Neg(r.Intn(nVars))}
			scoped = append(scoped, c)
			s.AddScoped(c...)
		}
		if got, want := s.Solve(), bruteForce(nVars, scoped); got != want {
			t.Fatalf("cycle %d scoped: solver=%v brute=%v", cycle, got, want)
		}
		s.Pop()
		if got := s.Solve(); got != baseWant {
			t.Fatalf("cycle %d after pop: solver=%v brute=%v", cycle, got, baseWant)
		}
	}
}

// scanPick is the reference branching rule the heap replaces: a linear
// scan for the unassigned variable of highest activity. The strict >
// over ascending indices sends ties to the lowest index.
func scanPick(s *Solver) int {
	best, bestAct := -1, -1.0
	for v := range s.assigns {
		if s.assigns[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// checkHeap verifies the branching-heap invariants: order and orderPos
// agree, every parent outranks its children, and every unassigned
// variable is in the heap.
func checkHeap(s *Solver) error {
	for i, v := range s.order {
		if s.orderPos[v] != int32(i) {
			return fmt.Errorf("orderPos[%d] = %d, want %d", v, s.orderPos[v], i)
		}
		if i > 0 {
			if p := s.order[(i-1)/2]; s.before(v, p) {
				return fmt.Errorf("heap slot %d (var %d, act %g) outranks its parent (var %d, act %g)",
					i, v, s.activity[v], p, s.activity[p])
			}
		}
	}
	for v, i := range s.orderPos {
		if i < 0 && s.assigns[v] == lUndef {
			return fmt.Errorf("unassigned var %d missing from the heap", v)
		}
		if i >= 0 && (int(i) >= len(s.order) || s.order[i] != int32(v)) {
			return fmt.Errorf("orderPos[%d] = %d points at the wrong slot", v, i)
		}
	}
	return nil
}

// heapWorkload drives one solver through a seeded mix of everything
// that moves the branching heap — open scopes, assumption queries,
// learnt-clause deletion under a small cap, variables added mid-session,
// forced activity rescales (some underflowing to zero) and planted
// activity ties — and returns a transcript of every answer, the
// Stats() counters and the full model after each query.
func heapWorkload(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	s := New()
	if r.Intn(2) == 0 {
		s.SetLearntCap(4 + r.Intn(16))
	}
	nVars := 12 + r.Intn(24)
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	randClause := func(width int) []Lit {
		c := make([]Lit, width)
		for j := range c {
			c[j] = Pos(r.Intn(s.NumVars()))
			if r.Intn(2) == 0 {
				c[j] = c[j].Not()
			}
		}
		return c
	}
	// Random 3-SAT a little under the phase transition: mostly SAT,
	// with enough conflicts to bump, learn and delete.
	for i := 0; i < nVars*7/2; i++ {
		s.AddClause(randClause(3)...)
	}
	var out []string
	for round := 0; round < 12; round++ {
		if s.ScopeDepth() < 3 && r.Intn(2) == 0 {
			s.Push()
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			s.AddScoped(randClause(2 + r.Intn(2))...)
		}
		if r.Intn(3) == 0 {
			for i, n := 0, 1+r.Intn(4); i < n; i++ {
				s.NewVar()
				s.AddClause(randClause(3)...)
			}
		}
		switch r.Intn(4) {
		case 0:
			// Force a rescale within the next conflict or two; tiny
			// activities underflow to zero and tie with the rest.
			for v := range s.activity {
				if r.Intn(4) == 0 {
					s.activity[v] = 1e-250
				}
			}
			s.heapify()
			s.varInc = 1e100 * (0.5 + r.Float64())
		case 1:
			// Plant ties: a handful of distinct activity levels.
			for v := range s.activity {
				s.activity[v] = float64(r.Intn(3))
			}
			s.heapify()
		}
		var ok bool
		if r.Intn(3) == 0 {
			ok = s.Solve()
		} else {
			var as []Lit
			for i, n := 0, r.Intn(4); i < n; i++ {
				as = append(as, randClause(1)[0])
			}
			ok = s.SolveUnder(as...)
		}
		d, c := s.Stats()
		line := fmt.Sprintf("round %d: sat=%v decisions=%d conflicts=%d learnts=%d deleted=%d model=",
			round, ok, d, c, s.NumLearnts(), s.DeletedLearnts())
		if ok {
			for v := 0; v < s.NumVars(); v++ {
				if s.Value(v) {
					line += "1"
				} else {
					line += "0"
				}
			}
		}
		out = append(out, line)
		if s.ScopeDepth() > 0 && r.Intn(2) == 0 {
			s.Pop()
		}
	}
	return out
}

// TestHeapPicksMatchScan checks every branch decision the heap makes
// against the reference scan on the same solver state, and the heap
// invariants before each decision (so after every rescale, too).
func TestHeapPicksMatchScan(t *testing.T) {
	var seed int64
	var picks, rescales int
	lastInc := 0.0
	t.Cleanup(func() { pickBranch = (*Solver).pickBranchVar })
	pickBranch = func(s *Solver) int {
		if s.varInc < lastInc {
			rescales++
		}
		lastInc = s.varInc
		if err := checkHeap(s); err != nil {
			t.Fatalf("seed %d pick %d: %v", seed, picks, err)
		}
		want, got := scanPick(s), s.pickBranchVar()
		if got != want {
			t.Fatalf("seed %d pick %d: heap chose var %d, scan chose %d", seed, picks, got, want)
		}
		picks++
		return got
	}
	for seed = 0; seed < 300; seed++ {
		lastInc = 0
		heapWorkload(seed)
	}
	t.Logf("%d picks, %d rescales", picks, rescales)
	if picks < 10000 || rescales < 20 {
		t.Fatalf("workload too weak: %d picks, %d rescales", picks, rescales)
	}
}

// TestHeapRunMatchesScanRun replays the same workloads with the scan
// driving the search: answers, Stats() and every model value must be
// identical, so the heap changes no output anywhere downstream.
func TestHeapRunMatchesScanRun(t *testing.T) {
	t.Cleanup(func() { pickBranch = (*Solver).pickBranchVar })
	for seed := int64(0); seed < 300; seed++ {
		pickBranch = (*Solver).pickBranchVar
		heap := heapWorkload(seed)
		pickBranch = scanPick
		scan := heapWorkload(seed)
		if !reflect.DeepEqual(heap, scan) {
			for i := range heap {
				if i >= len(scan) || heap[i] != scan[i] {
					t.Fatalf("seed %d diverges:\n heap: %s\n scan: %s", seed, heap[i], scan[i])
				}
			}
			t.Fatalf("seed %d: transcripts differ in length", seed)
		}
	}
}

// TestRescaleRebuildsHeap pins the rescale path: scaling by 1e-100
// underflows tiny activities to zero, creating ties that must go to
// the lower index even though the heap held the higher one above.
func TestRescaleRebuildsHeap(t *testing.T) {
	s := New()
	for i := 0; i < 16; i++ {
		s.NewVar()
	}
	// Odd variables get a tiny activity, so each outranks the
	// zero-activity even variable just below it in index.
	for v := 1; v < 16; v += 2 {
		s.activity[v] = 1e-250
	}
	s.heapify()
	if err := checkHeap(s); err != nil {
		t.Fatal(err)
	}
	s.varInc = 2e100
	s.bumpVar(15) // crosses 1e100: rescale
	if s.varInc >= 1e100 {
		t.Fatal("bump did not trigger a rescale")
	}
	if err := checkHeap(s); err != nil {
		t.Fatalf("after rescale: %v", err)
	}
	for i := 0; i < 16; i++ {
		want := scanPick(s)
		got := s.pickBranchVar()
		if got != want {
			t.Fatalf("decision %d: heap chose %d, scan chose %d", i, got, want)
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(Pos(got), nil)
	}
	if v := s.pickBranchVar(); v != -1 {
		t.Fatalf("all variables assigned, heap still offered %d", v)
	}
	s.cancelUntil(0)
	if err := checkHeap(s); err != nil {
		t.Fatalf("after backtrack: %v", err)
	}
}

// BenchmarkSessionManyVars drives one long incremental session the
// way the bitvector solver does: each query brings fresh symbolic
// input bits, bit-blasts gate variables over them under permanent
// definitional clauses, asserts its condition in a scope, decides a
// branch literal with SolveUnder and pops. The session keeps every
// variable across pops and grows to about 4k of them, the size of a
// corpus driver's exploration session, so any per-decision cost that
// scales with the variable count shows.
func BenchmarkSessionManyVars(b *testing.B) {
	const target = 4096
	var decisions int64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(1))
		s := New()
		lits := []Lit{Pos(s.NewVar())}
		pick := func() Lit {
			// Prefer recent gates, as a branch condition reuses the
			// path's latest symbolic values.
			l := lits[len(lits)-1-r.Intn(min(len(lits), 64))]
			if r.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		for s.NumVars() < target {
			s.Push()
			for in := 0; in < 8; in++ {
				lits = append(lits, Pos(s.NewVar()))
			}
			for g := 0; g < 24; g++ {
				x, y, out := pick(), pick(), Pos(s.NewVar())
				if r.Intn(2) == 0 { // out = x ∧ y
					s.AddClause(out.Not(), x)
					s.AddClause(out.Not(), y)
					s.AddClause(out, x.Not(), y.Not())
				} else { // out = x ⊕ y
					s.AddClause(out.Not(), x, y)
					s.AddClause(out.Not(), x.Not(), y.Not())
					s.AddClause(out, x.Not(), y)
					s.AddClause(out, x, y.Not())
				}
				lits = append(lits, out)
			}
			s.AddScoped(pick())
			s.SolveUnder(pick())
			s.Pop()
		}
		d, _ := s.Stats()
		decisions += d
	}
	b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
}
