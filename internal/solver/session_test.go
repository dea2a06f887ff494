package solver

import (
	"fmt"
	"math/rand"
	"reflect"
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
// conditions), pops of one to three constraints, and MayBeTrue /
// MustBeTrue queries, so the session's root stack is truncated and
// regrown while its clause database only grows. It checks every
// verdict against a fresh one-shot Satisfiable of the same sliced
// query, and every SAT verdict's cached model against every
// constraint of its query under expr.Eval. It returns the transcript
// of verdicts and counters, and the SAT-level counters.
func sessionWorkload(t *testing.T, seed int64) ([]string, SearchStats) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	vars := []*expr.Expr{expr.S("dsa", 8), expr.S("dsb", 8), expr.S("dsc", 8), expr.S("dsd", 8)}
	s := New()
	var pc []*expr.Expr
	var out []string
	// check answers SAT(Slice(pc, cond) ∧ cond) on a fresh solver and
	// verifies the model s cached for it when the answer is SAT.
	check := func(step int, cond *expr.Expr, got bool) {
		t.Helper()
		query, _ := liveConstraints(Slice(pc, cond))
		if !cond.IsTrue() {
			query = append(query, cond)
		}
		if want := New().Satisfiable(query); got != want {
			t.Fatalf("seed %d step %d: session says %v, one-shot %v for %s under %v",
				seed, step, got, want, cond, pc)
		}
		if !got || len(query) == 0 {
			return
		}
		m, ok := s.modelGet(fingerprint(query))
		if !ok {
			t.Fatalf("seed %d step %d: SAT verdict without a cached model", seed, step)
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
		switch op := r.Intn(6); {
		case op < 2: // grow: constrain a feasible side
			may := s.MayBeTrue(pc, cond)
			check(step, cond, may)
			if !may {
				cond = expr.Not(cond)
			}
			pc = append(pc, cond)
			out = append(out, fmt.Sprintf("grow %v", may))
		case op == 2 && len(pc) > 0: // pop
			pc = pc[:len(pc)-min(len(pc), 1+r.Intn(3))]
			out = append(out, fmt.Sprintf("pop to %d", len(pc)))
		case op < 5:
			may := s.MayBeTrue(pc, cond)
			check(step, cond, may)
			out = append(out, fmt.Sprintf("may %v", may))
		default:
			must := s.MustBeTrue(pc, cond)
			check(step, expr.Not(cond), !must)
			out = append(out, fmt.Sprintf("must %v", must))
		}
	}
	q, hits := s.Stats()
	out = append(out, fmt.Sprintf("queries=%d hits=%d modelHits=%d search=%+v", q, hits, s.ModelHits(), s.Search()))
	return out, s.Search()
}

// TestSessionMatchesOneShot is the differential test of the
// incremental session: on random sequences of prefix growth, pops and
// branch queries, every verdict matches one-shot solving, every model
// satisfies its query, and a rerun repeats every counter.
func TestSessionMatchesOneShot(t *testing.T) {
	var solved int64
	for seed := int64(0); seed < 20; seed++ {
		first, st := sessionWorkload(t, seed)
		again, _ := sessionWorkload(t, seed)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("seed %d: rerun differs:\n%v\n%v", seed, first[len(first)-1], again[len(again)-1])
		}
		solved += st.SessionsExtended + st.SessionsRebuilt
	}
	t.Logf("%d queries reached the session", solved)
	if solved < 300 {
		t.Fatalf("only %d queries reached the session: workload too weak", solved)
	}
}
