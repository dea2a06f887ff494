package solver

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"revnic/internal/expr"
	"revnic/internal/sat"
)

// randCons builds a random width-1 constraint over the given 4-bit
// variables.
func randCons(r *rand.Rand, vars []*expr.Expr) *expr.Expr {
	term := func() *expr.Expr {
		e := vars[r.Intn(len(vars))]
		for i, n := 0, r.Intn(3); i < n; i++ {
			c := expr.C(uint32(r.Intn(16)), 4)
			switch r.Intn(5) {
			case 0:
				e = expr.Add(e, c)
			case 1:
				e = expr.Sub(e, c)
			case 2:
				e = expr.And(e, vars[r.Intn(len(vars))])
			case 3:
				e = expr.Xor(e, c)
			case 4:
				e = expr.Mul(e, c)
			}
		}
		return e
	}
	lhs, rhs := term(), term()
	switch r.Intn(3) {
	case 0:
		return expr.Eq(lhs, rhs)
	case 1:
		return expr.Ult(lhs, rhs)
	default:
		return expr.Not(expr.Eq(lhs, rhs))
	}
}

// bruteSat enumerates every assignment of the 4-bit variables.
func bruteSat(names []string, cons []*expr.Expr) bool {
	total := 4 * len(names)
	for n := 0; n < 1<<total; n++ {
		env := map[string]uint32{}
		rest := n
		for _, name := range names {
			env[name] = uint32(rest & 15)
			rest >>= 4
		}
		ev := expr.NewEvaluator(env)
		ok := true
		for _, c := range cons {
			if ev.Eval(c) == 0 {
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

// BackendConformanceTest is the backend conformance harness: the core
// backend must agree with brute-force ground truth on one-shot and
// root-stack queries, produce verifiable models, drop popped roots,
// and honor the interrupt hook.
func BackendConformanceTest(t *testing.T) {
	t.Helper()
	names := []string{"cfa", "cfb", "cfc"}
	vars := make([]*expr.Expr, len(names))
	for i, n := range names {
		vars[i] = expr.S(n, 4)
	}
	checkModel := func(t *testing.T, m map[string]uint32, cons []*expr.Expr) {
		t.Helper()
		ev := expr.NewEvaluator(m)
		for _, c := range cons {
			if ev.Eval(c) == 0 {
				t.Fatalf("model %v violates %v", m, c)
			}
		}
	}

	t.Run("agreement", func(t *testing.T) {
		r := rand.New(rand.NewSource(17))
		for trial := 0; trial < 40; trial++ {
			b := newCoreBackend(nil)
			var all []*expr.Expr
			var roots []sat.Lit
			for i, n := 0, r.Intn(3); i < n; i++ {
				c := randCons(r, vars)
				all = append(all, c)
				roots = append(roots, b.Root(c))
			}
			base := len(all)
			for cycle := 0; cycle < 3; cycle++ {
				all, roots = all[:base], roots[:base]
				for i, n := 0, r.Intn(2); i < n; i++ {
					c := randCons(r, vars)
					all = append(all, c)
					roots = append(roots, b.Root(c))
				}
				cond := randCons(r, vars)
				query := append(append([]*expr.Expr{}, all...), cond)
				want := bruteSat(names, query)
				v := b.SolveUnder(roots, cond)
				if v == VUnknown {
					t.Fatalf("trial %d cycle %d: VUnknown without an interrupt", trial, cycle)
				}
				if got := v == VSat; got != want {
					t.Fatalf("trial %d cycle %d: verdict %v, brute force %v", trial, cycle, v, want)
				}
				if v == VSat {
					checkModel(t, b.Model(), query)
				}
			}
			// After all pops: base constraints only.
			want := bruteSat(names, all[:base])
			if v := b.SolveUnder(roots[:base], nil); (v == VSat) != want {
				t.Fatalf("trial %d: after pops verdict %v, brute force %v", trial, v, want)
			}
			// The one-shot path on a fresh backend agrees too.
			one := newCoreBackend(nil)
			for _, c := range all[:base] {
				one.Assert(c)
			}
			v := one.Solve()
			if (v == VSat) != want {
				t.Fatalf("trial %d: one-shot verdict %v, brute force %v", trial, v, want)
			}
			if v == VSat {
				checkModel(t, one.Model(), all[:base])
			}
		}
	})

	t.Run("pushpop-balance", func(t *testing.T) {
		b := newCoreBackend(nil)
		roots := []sat.Lit{b.Root(expr.Eq(vars[0], expr.C(3, 4)))}
		for depth := 0; depth < 5; depth++ {
			roots = append(roots, b.Root(expr.Not(expr.Eq(vars[0], expr.C(uint32(depth+4), 4)))))
		}
		if v := b.SolveUnder(roots, nil); v != VSat {
			t.Fatalf("verdict %v at depth 5, want sat", v)
		}
		roots = append(roots, b.Root(expr.Not(expr.Eq(vars[0], expr.C(3, 4)))))
		if v := b.SolveUnder(roots, nil); v != VUnsat {
			t.Fatalf("verdict %v with contradictory root, want unsat", v)
		}
		if v := b.SolveUnder(roots[:1], nil); v != VSat {
			t.Fatalf("verdict %v after unwinding all roots, want sat", v)
		}
		if m := b.Model(); m["cfa"] != 3 {
			t.Fatalf("model %v, want cfa = 3", m)
		}
	})

	t.Run("interrupt-honored", func(t *testing.T) {
		// A 32-bit factoring query: thousands of search iterations for
		// the SAT core, so the interrupt poll fires before an answer.
		x, y := expr.S("cfix", 32), expr.S("cfiy", 32)
		b := newCoreBackend(func() bool { return true })
		b.Assert(expr.Eq(expr.Mul(x, y), expr.C(0xDEADBEEF, 32)))
		if v := b.Solve(); v != VUnknown {
			t.Fatalf("verdict %v under always-firing interrupt, want unknown", v)
		}
	})
}

func TestBackendConformance(t *testing.T) {
	t.Run("core", BackendConformanceTest)
}

// TestPortfolioInterruptAborts pins the interrupt-abort path: a
// factoring query under an always-firing interrupt must answer
// conservatively (false) and leave the verdict cache empty.
func TestPortfolioInterruptAborts(t *testing.T) {
	s := NewWith(Config{Interrupt: func() bool { return true }})
	x, y := expr.S("pix", 32), expr.S("piy", 32)
	cond := expr.Eq(expr.Mul(x, y), expr.C(0xDEADBEEF, 32))
	if s.MayBeTrue(nil, cond) {
		t.Fatal("interrupted query answered true")
	}
	if n := s.CacheSize(); n != 0 {
		t.Fatalf("interrupted query populated the verdict cache (%d entries)", n)
	}
}

// TestPortfolioAbortedNeverCached pins the never-cache-aborted rule:
// once the interrupt that aborted a query is cleared, the very same
// query must be solved — not served from a cache — answer true, and
// only then be cached.
func TestPortfolioAbortedNeverCached(t *testing.T) {
	var abort atomic.Bool
	abort.Store(true)
	s := NewWith(Config{Interrupt: abort.Load})
	x, y := expr.S("pnx", 32), expr.S("pny", 32)
	cond := expr.Eq(expr.Mul(x, y), expr.C(0xDEADBEEF, 32))
	if s.MayBeTrue(nil, cond) {
		t.Fatal("aborted query must answer conservatively (false)")
	}
	if n := s.CacheSize(); n != 0 {
		t.Fatalf("aborted query populated the verdict cache (%d entries)", n)
	}
	if s.ModelHits() != 0 {
		t.Fatal("aborted query produced a model hit")
	}
	abort.Store(false)
	if !s.MayBeTrue(nil, cond) {
		t.Fatal("query answered false once the interrupt cleared: the aborted verdict was cached")
	}
	if _, hits := s.Stats(); hits != 0 {
		t.Fatalf("post-interrupt answer came from the cache (%d hits), not a solve", hits)
	}
	if n := s.CacheSize(); n != 1 {
		t.Fatalf("decided query not cached (%d entries)", n)
	}
}

// TestSessionSharesPrefixAcrossSiblings pins the root-stack payoff:
// alternating between two sibling constraint prefixes (same parent
// path, different last constraint) must keep one backend session
// alive instead of rebuilding per flip.
func TestSessionSharesPrefixAcrossSiblings(t *testing.T) {
	s := New()
	x, y := expr.S("ssa", 8), expr.S("ssb", 8)
	parent := []*expr.Expr{expr.Ult(x, expr.C(200, 8)), expr.Ult(y, expr.C(200, 8))}
	left := append(append([]*expr.Expr{}, parent...), expr.Ult(x, expr.C(100, 8)))
	right := append(append([]*expr.Expr{}, parent...), expr.Not(expr.Ult(x, expr.C(100, 8))))
	for i := 0; i < 6; i++ {
		pc := left
		if i%2 == 1 {
			pc = right
		}
		// Vary the condition so every query misses the caches and
		// actually reaches the session.
		cond := expr.Eq(expr.Add(y, expr.C(uint32(i), 8)), expr.C(7, 8))
		if !s.MayBeTrue(pc, cond) {
			t.Fatalf("query %d: expected sat", i)
		}
	}
	st := s.Search()
	ext, rebuilt := st.SessionsExtended, st.SessionsRebuilt
	if rebuilt != 1 {
		t.Fatalf("sibling flips rebuilt the session %d times, want 1", rebuilt)
	}
	if ext != 5 {
		t.Fatalf("extended = %d, want 5", ext)
	}
}

// TestUnsatSubsumption pins the index's UNSAT side: once a constraint
// set is proven UNSAT, any superset query is answered by subsumption
// without solving.
func TestUnsatSubsumption(t *testing.T) {
	s := New()
	x, y := expr.S("usa", 8), expr.S("usb", 8)
	a := expr.Ult(x, expr.C(5, 8))
	b := expr.Not(expr.Ult(x, expr.C(10, 8)))
	if s.Satisfiable([]*expr.Expr{a, b}) {
		t.Fatal("x<5 ∧ x≥10 must be unsat")
	}
	before := s.ModelHits()
	extra := expr.Eq(y, expr.C(1, 8))
	if s.Satisfiable([]*expr.Expr{a, extra, b}) {
		t.Fatal("superset of an unsat set must be unsat")
	}
	if s.ModelHits() == before {
		t.Fatal("superset query did not hit the UNSAT index")
	}
}

// TestIndexOutlivesRecencyList pins the "job-wide" claim: a model
// stays findable through its variable-set bucket even after the
// global recency list has cycled past it — the old 4-entry ring
// forgot it.
func TestIndexOutlivesRecencyList(t *testing.T) {
	s := New() // recency list holds cxModels = 4
	x := expr.S("iwx", 8)
	if !s.Satisfiable([]*expr.Expr{expr.Ult(x, expr.C(10, 8))}) {
		t.Fatal("sat expected")
	}
	// Push 8 models for other variable sets through the recency list.
	for i := 0; i < 8; i++ {
		v := expr.S("iwo"+string(rune('a'+i)), 8)
		if !s.Satisfiable([]*expr.Expr{expr.Eq(v, expr.C(uint32(i+1), 8))}) {
			t.Fatal("sat expected")
		}
	}
	before := s.ModelHits()
	// Weaker query over x's variable set: the bucket still holds the
	// witness.
	if !s.Satisfiable([]*expr.Expr{expr.Ult(x, expr.C(50, 8))}) {
		t.Fatal("sat expected")
	}
	if s.ModelHits() == before {
		t.Fatal("bucketed model was lost: index did not outlive the recency list")
	}
}
