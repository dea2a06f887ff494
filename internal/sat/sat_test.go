package sat

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
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

// scopes is a scoped constraint stack in the assumption-literal form
// the bitvector solver's session uses: each open scope has a root
// literal, every clause of the scope carries the root's negation (the
// root implies the clause), and a query assumes every open root ahead
// of its own assumptions. Popping a scope only stops assuming its
// root: its clauses stay in the database, switched off, and whatever
// was learnt from them stays valid.
type scopes struct {
	s     *Solver
	roots []Lit
}

func (sc *scopes) push() { sc.roots = append(sc.roots, Pos(sc.s.NewVar())) }

func (sc *scopes) pop() { sc.roots = sc.roots[:len(sc.roots)-1] }

func (sc *scopes) depth() int { return len(sc.roots) }

// add adds a clause to the innermost open scope, or a permanent one
// with no scope open.
func (sc *scopes) add(lits ...Lit) bool {
	if len(sc.roots) == 0 {
		return sc.s.AddClause(lits...)
	}
	return sc.s.AddClause(append(lits[:len(lits):len(lits)], sc.roots[len(sc.roots)-1].Not())...)
}

// solve decides the formula with every open scope active.
func (sc *scopes) solve(assumptions ...Lit) bool {
	return sc.s.SolveUnder(append(sc.roots[:len(sc.roots):len(sc.roots)], assumptions...)...)
}

func TestScopedClauses(t *testing.T) {
	s := New()
	sc := &scopes{s: s}
	x := s.NewVar()
	if !s.AddClause(Pos(x)) {
		t.Fatal("base clause rejected")
	}
	sc.push()
	sc.add(Neg(x))
	if sc.solve() {
		t.Fatal("SAT with contradictory scoped clause active")
	}
	if s.Unsat() {
		t.Fatal("scoped contradiction poisoned the solver globally")
	}
	sc.pop()
	if !sc.solve() {
		t.Fatal("UNSAT after popping the contradictory scope")
	}
	if !s.Value(x) {
		t.Fatal("model lost the base clause")
	}
}

func TestScopeNesting(t *testing.T) {
	s := New()
	sc := &scopes{s: s}
	x, y := s.NewVar(), s.NewVar()
	s.AddClause(Pos(x), Pos(y))
	sc.push()
	sc.add(Neg(x))
	sc.push()
	sc.add(Neg(y))
	if sc.solve() {
		t.Fatal("SAT with both scopes active")
	}
	sc.pop() // drop ¬y
	if !sc.solve() {
		t.Fatal("UNSAT with only outer scope active")
	}
	if s.Value(x) || !s.Value(y) {
		t.Fatal("model violates active constraints")
	}
	sc.pop() // drop ¬x
	if !sc.solve() {
		t.Fatal("UNSAT with no scopes active")
	}
}

// TestScopedRandom checks push/pop semantics against brute force: a
// random base formula plus a random scoped layer must answer like the
// conjunction while the scope is open and like the base alone after
// the pop — across repeated cycles on one solver instance, so learnt
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
		sc := &scopes{s: s}
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
			sc.push()
			scoped := append([][]Lit(nil), base...)
			for i, n := 0, 1+r.Intn(2*nVars); i < n; i++ {
				c := randClause(nVars)
				scoped = append(scoped, c)
				sc.add(c...)
			}
			if got, want := sc.solve(), bruteForce(nVars, scoped); got != want {
				t.Fatalf("trial %d cycle %d scoped: solver=%v brute=%v", trial, cycle, got, want)
			}
			sc.pop()
			if got := sc.solve(); got != baseWant {
				t.Fatalf("trial %d cycle %d after pop: solver=%v brute=%v", trial, cycle, got, baseWant)
			}
		}
	}
}

// TestScopedUnderAssumptions mixes open scopes with further
// assumptions: the scoped layer must stay active and the assumptions
// must stay transient.
func TestScopedUnderAssumptions(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		nVars := 4 + r.Intn(6)
		s := New()
		sc := &scopes{s: s}
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
				if sc.depth() == 0 {
					sc.push()
				}
				sc.add(c...)
			}
		}
		for q := 0; q < 4; q++ {
			a := Pos(r.Intn(nVars))
			if r.Intn(2) == 0 {
				a = a.Not()
			}
			want := bruteForce(nVars, append(append([][]Lit(nil), all...), []Lit{a}))
			if got := sc.solve(a); got != want {
				t.Fatalf("trial %d q %d: solver=%v brute=%v under %v", trial, q, got, want, a)
			}
		}
	}
}

// TestScopedLearntDeletion exercises push/pop under a tiny learnt cap:
// deletion (and the arena compaction behind it) plus scope retirement
// must not change answers.
func TestScopedLearntDeletion(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	s := New()
	sc := &scopes{s: s}
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
		sc.push()
		scoped := append([][]Lit(nil), base...)
		for i := 0; i < 6; i++ {
			c := []Lit{Pos(r.Intn(nVars)), Neg(r.Intn(nVars))}
			scoped = append(scoped, c)
			sc.add(c...)
		}
		if got, want := sc.solve(), bruteForce(nVars, scoped); got != want {
			t.Fatalf("cycle %d scoped: solver=%v brute=%v", cycle, got, want)
		}
		sc.pop()
		if got := sc.solve(); got != baseWant {
			t.Fatalf("cycle %d after pop: solver=%v brute=%v", cycle, got, baseWant)
		}
	}
}

// TestRestrictedConeSound checks restricted searches on the formulas
// the bit-blaster emits: every variable is a free input or an AND, XOR
// or MUX gate over lower variables, defined by permanent clauses.
// Assuming random literals and branching only on their cone must
// answer like brute force over the whole formula, and on SAT every
// cone variable must be assigned, every cone gate must equal its
// function of its inputs, and every assumption must hold. One solver
// answers all of a trial's queries, so learnt clauses carry over.
func TestRestrictedConeSound(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var decisions [2]int64 // restricted, unrestricted
	for trial := 0; trial < 300; trial++ {
		s := New()
		var clauses [][]Lit
		add := func(c ...Lit) {
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		nVars := 6 + r.Intn(9)
		inputs := make([][]Lit, nVars) // gate inputs; nil for free inputs
		kinds := make([]int, nVars)
		for v := 0; v < nVars; v++ {
			s.NewVar()
			if v < 2 || r.Intn(3) == 0 {
				continue
			}
			in := func() Lit {
				l := Pos(r.Intn(v))
				if r.Intn(2) == 0 {
					l = l.Not()
				}
				return l
			}
			out := Pos(v)
			switch kinds[v] = r.Intn(3); kinds[v] {
			case 0: // out = x ∧ y
				x, y := in(), in()
				inputs[v] = []Lit{x, y}
				add(out.Not(), x)
				add(out.Not(), y)
				add(out, x.Not(), y.Not())
			case 1: // out = x ⊕ y
				x, y := in(), in()
				inputs[v] = []Lit{x, y}
				add(out.Not(), x, y)
				add(out.Not(), x.Not(), y.Not())
				add(out, x.Not(), y)
				add(out, x, y.Not())
			case 2: // out = c ? x : y
				c, x, y := in(), in(), in()
				inputs[v] = []Lit{c, x, y}
				add(c.Not(), x.Not(), out)
				add(c.Not(), x, out.Not())
				add(c, y.Not(), out)
				add(c, y, out.Not())
			}
		}
		val := func(l Lit) bool { return s.Value(l.Var()) != l.Sign() }
		for q := 0; q < 6; q++ {
			var as []Lit
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				as = append(as, Pos(nVars-1-r.Intn(nVars/2)))
				if r.Intn(2) == 0 {
					as[i] = as[i].Not()
				}
			}
			ref := append([][]Lit(nil), clauses...)
			for _, a := range as {
				ref = append(ref, []Lit{a})
			}
			want := bruteForce(nVars, ref)
			d0, _ := s.Stats()
			if s.SolveUnder(as...) != want {
				t.Fatalf("trial %d query %d: unrestricted disagrees with brute force %v", trial, q, want)
			}
			d1, _ := s.Stats()
			s.Restrict()
			stack := []int{}
			for _, a := range as {
				if s.Mark(a.Var()) {
					stack = append(stack, a.Var())
				}
			}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, in := range inputs[v] {
					if s.Mark(in.Var()) {
						stack = append(stack, in.Var())
					}
				}
			}
			got := s.SolveUnder(as...)
			d2, _ := s.Stats()
			decisions[0] += d2 - d1
			decisions[1] += d1 - d0
			if got != want {
				t.Fatalf("trial %d query %d: restricted=%v brute=%v under %v", trial, q, got, want, as)
			}
			if err := checkOrder(s); err != nil {
				t.Fatalf("trial %d query %d: %v", trial, q, err)
			}
			if !got {
				continue
			}
			for _, a := range as {
				if !val(a) {
					t.Fatalf("trial %d query %d: assumption %v false in the model", trial, q, a)
				}
			}
			for v := 0; v < nVars; v++ {
				if s.mark[v] != s.epoch {
					continue
				}
				if s.assigns[v] == lUndef {
					t.Fatalf("trial %d query %d: cone var %d unassigned", trial, q, v)
				}
				in := inputs[v]
				if in == nil {
					continue
				}
				var f bool
				switch kinds[v] {
				case 0:
					f = val(in[0]) && val(in[1])
				case 1:
					f = val(in[0]) != val(in[1])
				case 2:
					f = val(in[2])
					if val(in[0]) {
						f = val(in[1])
					}
				}
				if s.Value(v) != f {
					t.Fatalf("trial %d query %d: cone gate %d does not match its inputs", trial, q, v)
				}
			}
		}
	}
	if decisions[0] >= decisions[1] {
		t.Fatalf("restricted searches took %d decisions, unrestricted %d: the cone saved nothing",
			decisions[0], decisions[1])
	}
}

// scanPick is the reference branching rule the heap replaces: a linear
// scan for the unassigned variable of highest activity, within the
// decision set during a restricted search. The strict > over
// ascending indices sends ties to the lowest index.
func scanPick(s *Solver) int {
	best, bestAct := -1, -1.0
	for v := range s.assigns {
		if s.restricted && s.mark[v] != s.epoch {
			continue
		}
		if s.assigns[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// checkOrder verifies the two-tier branching invariants: order and
// orderPos agree, every parent in the heap outranks its children, the
// heap holds only variables of positive activity and every unassigned
// one of them, and no unassigned activity-0 variable sits below the
// zero-tier cursor. During a restricted search the last two hold for
// the marked variables only: unmarked ones are set aside or skipped.
func checkOrder(s *Solver) error {
	for i, v := range s.order {
		if s.orderPos[v] != int32(i) {
			return fmt.Errorf("orderPos[%d] = %d, want %d", v, s.orderPos[v], i)
		}
		if s.activity[v] <= 0 {
			return fmt.Errorf("heap slot %d holds var %d of activity %g", i, v, s.activity[v])
		}
		if i > 0 {
			if p := s.order[(i-1)/2]; s.before(v, p) {
				return fmt.Errorf("heap slot %d (var %d, act %g) outranks its parent (var %d, act %g)",
					i, v, s.activity[v], p, s.activity[p])
			}
		}
	}
	if s.zeroNext < 0 || s.zeroNext > len(s.assigns) {
		return fmt.Errorf("zeroNext = %d outside [0, %d]", s.zeroNext, len(s.assigns))
	}
	for v, i := range s.orderPos {
		if i >= 0 && (int(i) >= len(s.order) || s.order[i] != int32(v)) {
			return fmt.Errorf("orderPos[%d] = %d points at the wrong slot", v, i)
		}
		if s.assigns[v] != lUndef || s.restricted && s.mark[v] != s.epoch {
			continue
		}
		if s.activity[v] > 0 && i < 0 {
			return fmt.Errorf("unassigned var %d (act %g) missing from the heap", v, s.activity[v])
		}
		if s.activity[v] == 0 && v < s.zeroNext {
			return fmt.Errorf("unassigned activity-0 var %d below the cursor %d", v, s.zeroNext)
		}
	}
	return nil
}

// heapWorkload drives one solver through a seeded mix of everything
// that moves the branching heap — open scopes, assumption queries,
// searches restricted to a random decision set, learnt-clause deletion
// under a small cap, variables added mid-session, forced activity
// rescales (some underflowing to zero) and planted activity ties — and
// returns a transcript of every answer, the Stats() counters and the
// full model after each query, plus an "order:" line for any branching
// invariant broken after a solve.
func heapWorkload(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	s := New()
	sc := &scopes{s: s}
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
		if sc.depth() < 3 && r.Intn(2) == 0 {
			sc.push()
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			sc.add(randClause(2 + r.Intn(2))...)
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
			s.reorder()
			s.varInc = 1e100 * (0.5 + r.Float64())
		case 1:
			// Plant ties: a handful of distinct activity levels.
			for v := range s.activity {
				s.activity[v] = float64(r.Intn(3))
			}
			s.reorder()
		}
		var ok bool
		restricted := false
		if sc.depth() == 0 && r.Intn(3) == 0 {
			ok = s.Solve()
		} else {
			var as []Lit
			for i, n := 0, r.Intn(4); i < n; i++ {
				as = append(as, randClause(1)[0])
			}
			if r.Intn(2) == 0 {
				restricted = true
				s.Restrict()
				for v := 0; v < s.NumVars(); v++ {
					if r.Intn(2) == 0 {
						s.Mark(v)
					}
				}
			}
			ok = sc.solve(as...)
		}
		d, c := s.Stats()
		line := fmt.Sprintf("round %d: restricted=%v sat=%v decisions=%d conflicts=%d learnts=%d deleted=%d model=",
			round, restricted, ok, d, c, s.NumLearnts(), s.DeletedLearnts())
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
		if err := checkOrder(s); err != nil {
			out = append(out, "order: "+err.Error())
		}
		if sc.depth() > 0 && r.Intn(2) == 0 {
			sc.pop()
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
		if err := checkOrder(s); err != nil {
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
		for _, line := range heapWorkload(seed) {
			if strings.HasPrefix(line, "order:") {
				t.Fatalf("seed %d after a solve: %s", seed, line)
			}
		}
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
	s.reorder()
	if err := checkOrder(s); err != nil {
		t.Fatal(err)
	}
	s.varInc = 2e100
	s.bumpVar(15) // crosses 1e100: rescale
	if s.varInc >= 1e100 {
		t.Fatal("bump did not trigger a rescale")
	}
	if err := checkOrder(s); err != nil {
		t.Fatalf("after rescale: %v", err)
	}
	for i := 0; i < 16; i++ {
		want := scanPick(s)
		got := s.pickBranchVar()
		if got != want {
			t.Fatalf("decision %d: heap chose %d, scan chose %d", i, got, want)
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(Pos(got), noClause)
	}
	if v := s.pickBranchVar(); v != -1 {
		t.Fatalf("all variables assigned, heap still offered %d", v)
	}
	s.cancelUntil(0)
	if err := checkOrder(s); err != nil {
		t.Fatalf("after backtrack: %v", err)
	}
}

// decide makes v a decision at a new level, as Solve does.
func decide(s *Solver, v int) {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(Pos(v), noClause)
}

// TestTwoTierEdgeCases pins the transitions between the heap tier and
// the zero-activity cursor that random workloads reach only rarely,
// checking the invariants and every pick against the scan.
func TestTwoTierEdgeCases(t *testing.T) {
	// pick checks the invariants, then the pick against the scan.
	pick := func(t *testing.T, s *Solver) int {
		t.Helper()
		if err := checkOrder(s); err != nil {
			t.Fatal(err)
		}
		want, got := scanPick(s), s.pickBranchVar()
		if got != want {
			t.Fatalf("picked var %d, scan picks %d", got, want)
		}
		return got
	}
	newSolver := func(n int) *Solver {
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		return s
	}

	t.Run("bump unassigned zero-activity var", func(t *testing.T) {
		s := newSolver(8)
		decide(s, pick(t, s)) // var 0 by the cursor
		s.bumpVar(5)          // unassigned, activity 0 until now
		if v := pick(t, s); v != 5 {
			t.Fatalf("picked %d after bumping var 5", v)
		}
	})

	t.Run("rescale underflows a heap var below the cursor", func(t *testing.T) {
		s := newSolver(8)
		for i := 0; i < 3; i++ {
			decide(s, pick(t, s)) // vars 0, 1, 2 by the cursor
		}
		s.varInc = 1e-250
		s.bumpVar(1) // assigned: joins the heap when unassigned
		s.cancelUntil(1)
		// Var 1 is back in the heap, var 2 set the cursor to 2.
		if s.orderPos[1] < 0 || s.zeroNext != 2 {
			t.Fatalf("after backjump: orderPos[1]=%d zeroNext=%d", s.orderPos[1], s.zeroNext)
		}
		s.varInc = 2e100
		s.bumpVar(7) // rescale: var 1 underflows to activity 0
		if s.activity[1] != 0 || s.varInc >= 1e100 {
			t.Fatalf("no underflowing rescale: act[1]=%g varInc=%g", s.activity[1], s.varInc)
		}
		for _, want := range []int{7, 1, 2} {
			v := pick(t, s)
			if v != want {
				t.Fatalf("picked %d, want %d", v, want)
			}
			decide(s, v)
		}
	})

	t.Run("NewVar after the cursor reached the end", func(t *testing.T) {
		s := newSolver(4)
		for i := 0; i < 4; i++ {
			decide(s, pick(t, s))
		}
		if v := pick(t, s); v != -1 {
			t.Fatalf("all variables assigned, picked %d", v)
		}
		v := s.NewVar()
		if got := pick(t, s); got != v {
			t.Fatalf("picked %d, want the new var %d", got, v)
		}
	})

	t.Run("backjumps to intermediate levels", func(t *testing.T) {
		s := newSolver(12)
		for _, v := range []int{3, 9} {
			s.activity[v] = float64(v)
		}
		s.reorder()
		for lvl := 0; lvl < 8; lvl++ {
			decide(s, pick(t, s)) // 9, 3, then the cursor: 0, 1, 2, 4, 5, 6
		}
		for _, lvl := range []int{6, 3, 5, 1} {
			s.cancelUntil(lvl)
			for s.decisionLevel() < 9 {
				decide(s, pick(t, s))
			}
		}
		s.cancelUntil(0)
		if err := checkOrder(s); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkSessionManyVars drives one long incremental session the
// way the bitvector solver does: each query brings fresh symbolic
// input bits, bit-blasts gate variables over them under permanent
// definitional clauses, and decides a branch literal under a path
// root, both as assumptions, branching only on their cone. The
// session keeps every variable and grows to about 4k of them, the
// size of a corpus driver's exploration session, so any per-decision
// cost that scales with the variable count shows.
func BenchmarkSessionManyVars(b *testing.B) {
	const target = 4096
	var decisions int64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(1))
		s := New()
		lits := []Lit{Pos(s.NewVar())}
		// inputs[v] are gate v's input variables (none for input bits).
		inputs := [][]int{nil}
		pick := func() Lit {
			// Prefer recent gates, as a branch condition reuses the
			// path's latest symbolic values.
			l := lits[len(lits)-1-r.Intn(min(len(lits), 64))]
			if r.Intn(2) == 0 {
				l = l.Not()
			}
			return l
		}
		var stack []int
		markCone := func(roots ...Lit) {
			s.Restrict()
			for _, l := range roots {
				if s.Mark(l.Var()) {
					stack = append(stack, l.Var())
				}
			}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, in := range inputs[v] {
					if s.Mark(in) {
						stack = append(stack, in)
					}
				}
			}
		}
		for s.NumVars() < target {
			for in := 0; in < 8; in++ {
				lits = append(lits, Pos(s.NewVar()))
				inputs = append(inputs, nil)
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
				inputs = append(inputs, []int{x.Var(), y.Var()})
			}
			root, cond := pick(), pick()
			markCone(root, cond)
			s.SolveUnder(root, cond)
		}
		d, _ := s.Stats()
		decisions += d
	}
	b.ReportMetric(float64(decisions)/float64(b.N), "decisions/op")
}
