package solver

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"revnic/internal/expr"
)

// sessionCond builds a random branch condition over 8-bit variables:
// comparisons of small arithmetic, bitwise, shift and ite terms, so
// the session blasts adders, multipliers, barrel shifters and muxes.
func sessionCond(r *rand.Rand, vars []*expr.Expr) *expr.Expr {
	term := func() *expr.Expr {
		e := vars[r.Intn(len(vars))]
		for i, n := 0, r.Intn(3); i < n; i++ {
			c := expr.C(uint32(r.Intn(256)), 8)
			switch r.Intn(7) {
			case 0:
				e = expr.Add(e, vars[r.Intn(len(vars))])
			case 1:
				e = expr.Sub(e, c)
			case 2:
				e = expr.And(e, c)
			case 3:
				e = expr.Xor(e, vars[r.Intn(len(vars))])
			case 4:
				e = expr.Mul(e, expr.C(uint32(r.Intn(8)), 8))
			case 5:
				e = expr.Lshr(e, vars[r.Intn(len(vars))])
			case 6:
				e = expr.Ite(expr.Ult(vars[r.Intn(len(vars))], c), e, c)
			}
		}
		return e
	}
	lhs, rhs := term(), term()
	switch r.Intn(4) {
	case 0:
		return expr.Eq(lhs, rhs)
	case 1:
		return expr.Ult(lhs, rhs)
	case 2:
		return expr.Slt(lhs, rhs)
	default:
		return expr.Not(expr.Eq(lhs, rhs))
	}
}

// sessionWorkload drives one Solver through a seeded random sequence
// of path growth (feasible extensions only, as the engine builds path
// conditions), pops of one to three constraints, MayBeTrue /
// must-be-true queries, and Values enumerations, so the session's root
// stack is truncated and regrown while its clause database only grows,
// and Model runs on a session the branch queries have grown. It checks
// every verdict against referenceSat of the same sliced query, every
// SAT verdict's cached model against every constraint of its query
// under expr.Eval, and every enumeration against referenceSat's. It
// returns the transcript of verdicts and counters, and the SAT-level
// counters, and the solver it ran on, left open.
func sessionWorkload(t *testing.T, seed int64) ([]string, *Solver) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	vars := []*expr.Expr{expr.S("dsa", 8), expr.S("dsb", 8), expr.S("dsc", 8), expr.S("dsd", 8)}
	s := New()
	var pc []*expr.Expr
	var out []string
	// check answers SAT(Slice(pc, cond) ∧ cond) with referenceSat and
	// verifies the model s cached for it when the answer is SAT.
	check := func(step int, cond *expr.Expr, got bool) {
		t.Helper()
		query, _ := liveConstraints(Slice(pc, cond))
		if !cond.IsTrue() {
			query = append(query, cond)
		}
		if _, want := referenceSat(query); got != want {
			t.Fatalf("seed %d step %d: session says %v, one-shot %v for %s under %v",
				seed, step, got, want, cond, pc)
		}
		if !got || len(query) == 0 {
			return
		}
		m, ok := s.cacheGet(fingerprint(query))
		if !ok || m == nil {
			t.Fatalf("seed %d step %d: SAT verdict without a cached model", seed, step)
		}
		if names := SymNames(queryVars(query)); !reflect.DeepEqual(slices.Sorted(maps.Keys(m)), names) {
			t.Fatalf("seed %d step %d: model binds %v, query mentions %v", seed, step, m, names)
		}
		ev := expr.NewEvaluator(m)
		for _, c := range query {
			if ev.Eval(c) == 0 {
				t.Fatalf("seed %d step %d: model %v violates %s", seed, step, m, c)
			}
		}
	}
	for step := 0; step < 60; step++ {
		cond := sessionCond(r, vars)
		switch op := r.Intn(7); {
		case op < 2: // grow: constrain a feasible side
			feasible := may(s, pc, cond)
			check(step, cond, feasible)
			if !feasible {
				cond = expr.Not(cond)
			}
			pc = append(pc, cond)
			out = append(out, fmt.Sprintf("grow %v", feasible))
		case op == 2 && len(pc) > 0: // pop
			pc = pc[:len(pc)-min(len(pc), 1+r.Intn(3))]
			out = append(out, fmt.Sprintf("pop to %d", len(pc)))
		case op < 5:
			feasible := may(s, pc, cond)
			check(step, cond, feasible)
			out = append(out, fmt.Sprintf("may %v", feasible))
		case op < 6:
			must := !may(s, pc, expr.Not(cond))
			check(step, expr.Not(cond), !must)
			out = append(out, fmt.Sprintf("must %v", must))
		default: // enumerate a term of at most 8 values
			e := expr.Lshr(expr.Add(vars[r.Intn(len(vars))], vars[r.Intn(len(vars))]), expr.C(5, 8))
			w, _ := referenceSat(pc)
			got, models := s.Values(pc, e, w, 8)
			for i, m := range models[1:] {
				over := maps.Clone(w)
				maps.Copy(over, m)
				ev := expr.NewEvaluator(over)
				for _, c := range pc {
					if ev.Eval(c) == 0 {
						t.Fatalf("seed %d step %d: value %d's model %v over the witness violates %s",
							seed, step, got[i+1], m, c)
					}
				}
				if ev.Eval(e) != got[i+1] {
					t.Fatalf("seed %d step %d: model %v does not produce value %d", seed, step, m, got[i+1])
				}
			}
			want := referenceValues(t, pc, e)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			// want holds distinct values, so a match also shows got has
			// no repeats.
			sorted := append([]uint32(nil), got...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			if !reflect.DeepEqual(sorted, want) {
				t.Fatalf("seed %d step %d: Values %v, referenceSat enumerates %v for %s under %v",
					seed, step, got, want, e, pc)
			}
			out = append(out, fmt.Sprintf("values %v", got))
		}
	}
	q, hits := s.Stats()
	out = append(out, fmt.Sprintf("queries=%d hits=%d search=%+v", q, hits, s.Search()))
	return out, s
}

// referenceValues enumerates every value e takes under pc with
// referenceSat, excluding each value found, and checks each witness
// satisfies pc under expr.Eval. Values are distinct by construction.
func referenceValues(t *testing.T, pc []*expr.Expr, e *expr.Expr) []uint32 {
	t.Helper()
	var out []uint32
	cons := append([]*expr.Expr(nil), pc...)
	for {
		m, ok := referenceSat(cons)
		if !ok {
			return out
		}
		ev := expr.NewEvaluator(m)
		for _, c := range pc {
			if ev.Eval(c) == 0 {
				t.Fatalf("reference model %v violates %s", m, c)
			}
		}
		v := ev.Eval(e)
		out = append(out, v)
		cons = append(cons, expr.Not(expr.Eq(e, expr.C(v, e.Width))))
	}
}

// TestSessionMatchesOneShot is the differential test of the
// incremental session: on random sequences of prefix growth, pops and
// branch queries, every verdict matches one-shot solving, every model
// satisfies its query, and a rerun repeats every counter.
func TestSessionMatchesOneShot(t *testing.T) {
	var solved int64
	for seed := int64(0); seed < 20; seed++ {
		first, s := sessionWorkload(t, seed)
		again, _ := sessionWorkload(t, seed)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("seed %d: rerun differs:\n%v\n%v", seed, first[len(first)-1], again[len(again)-1])
		}
		st := s.Search()
		solved += st.SessionsExtended + st.SessionsRebuilt
	}
	t.Logf("%d queries reached the session", solved)
	if solved < 300 {
		t.Fatalf("only %d queries reached the session: workload too weak", solved)
	}
}

// drainBackendPool empties the process-wide backend free list and
// returns a function that puts the drained backends back.
func drainBackendPool() (restore func()) {
	backendPool.mu.Lock()
	held := backendPool.free
	backendPool.free = nil
	backendPool.mu.Unlock()
	return func() {
		backendPool.mu.Lock()
		backendPool.free = append(backendPool.free, held...)
		backendPool.mu.Unlock()
	}
}

// TestRecycledSessionDoesNotLeak runs session workload A, closes its
// solver, and runs workload B on a new solver whose session draws A's
// backend, then B again on a backend no session ever used: verdicts,
// cached models, enumerations and SAT counters must be identical. A
// closed solver must keep reporting its counters.
func TestRecycledSessionDoesNotLeak(t *testing.T) {
	defer drainBackendPool()()
	for seed := int64(0); seed < 10; seed++ {
		drainBackendPool()
		_, a := sessionWorkload(t, seed)
		backend := a.inc.b
		q, hits := a.Stats()
		search := a.Search()
		a.Close()
		if q2, hits2 := a.Stats(); q2 != q || hits2 != hits || a.Search() != search {
			t.Fatalf("seed %d: counters changed on Close", seed)
		}
		if n := len(backendPool.free); n != 1 {
			t.Fatalf("seed %d: Close left %d backends on the free list, want 1", seed, n)
		}

		next := seed + 100
		recycled, b := sessionWorkload(t, next)
		if b.inc.b != backend {
			t.Fatalf("seed %d: the session after Close did not reuse the freed backend", next)
		}
		drainBackendPool()
		fresh, f := sessionWorkload(t, next)
		if f.inc.b == backend {
			t.Fatalf("seed %d: a drained free list handed out a backend", next)
		}
		if !reflect.DeepEqual(recycled, fresh) {
			for i := range fresh {
				if i >= len(recycled) || recycled[i] != fresh[i] {
					t.Fatalf("seed %d after seed %d diverges at step %d:\n recycled: %s\n fresh:    %s",
						next, seed, i, recycled[i], fresh[i])
				}
			}
			t.Fatalf("seed %d after seed %d: transcripts differ in length", next, seed)
		}
		if !reflect.DeepEqual(b.cache, f.cache) {
			t.Fatalf("seed %d after seed %d: cached models or verdicts differ", next, seed)
		}
		if b.Search() != f.Search() {
			t.Fatalf("seed %d after seed %d: search %+v on the recycled backend, %+v fresh",
				next, seed, b.Search(), f.Search())
		}
	}
}
