package solver

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"revnic/internal/expr"
)

// satisfiable reports whether the conjunction of cons has a model.
func satisfiable(s *Solver, cons []*expr.Expr) bool {
	_, ok := s.Model(cons)
	return ok
}

// may reports whether cond can be true under pc.
func may(s *Solver, pc []*expr.Expr, cond *expr.Expr) bool {
	_, ok := s.MayBeTrue(pc, cond)
	return ok
}

func TestBasicQueries(t *testing.T) {
	s := New()
	x := expr.S("x", 32)
	// x + 1 == 5  is satisfiable with x = 4.
	c := expr.Eq(expr.Add(x, expr.C(1, 32)), expr.C(5, 32))
	if !satisfiable(s, []*expr.Expr{c}) {
		t.Fatal("x+1==5 should be SAT")
	}
	m, ok := s.Model([]*expr.Expr{c})
	if !ok || m["x"] != 4 {
		t.Fatalf("model = %v", m)
	}
	// x < 2 && x > 5 is UNSAT.
	u := []*expr.Expr{
		expr.Ult(x, expr.C(2, 32)),
		expr.Ult(expr.C(5, 32), x),
	}
	if satisfiable(s, u) {
		t.Fatal("x<2 && x>5 should be UNSAT")
	}
}

func TestMustMayBeTrue(t *testing.T) {
	s := New()
	x := expr.S("x", 8)
	pc := []*expr.Expr{expr.Ult(x, expr.C(10, 8))}
	lt20 := expr.Ult(x, expr.C(20, 8))
	lt5 := expr.Ult(x, expr.C(5, 8))
	if may(s, pc, expr.Not(lt20)) {
		t.Error("x<10 must imply x<20")
	}
	if !may(s, pc, expr.Not(lt5)) {
		t.Error("x<10 must not imply x<5")
	}
	if !may(s, pc, lt5) {
		t.Error("x<5 must be possible under x<10")
	}
}

func TestSignedComparison(t *testing.T) {
	s := New()
	x := expr.S("x", 8)
	// x <s 0 && x >u 200: signed-negative bytes are 128..255 unsigned,
	// so this is SAT (e.g. 201).
	cons := []*expr.Expr{
		expr.Slt(x, expr.C(0, 8)),
		expr.Ult(expr.C(200, 8), x),
	}
	m, ok := s.Model(cons)
	if !ok {
		t.Fatal("should be SAT")
	}
	if !(m["x"] > 200) || int8(m["x"]) >= 0 {
		t.Fatalf("model x=%d does not satisfy", m["x"])
	}
	// x <s 0 && x <u 100 is UNSAT at width 8.
	if satisfiable(s, []*expr.Expr{
		expr.Slt(x, expr.C(0, 8)),
		expr.Ult(x, expr.C(100, 8)),
	}) {
		t.Fatal("negative byte cannot be <u 100")
	}
}

// TestRandomConstraintModels builds random constraints, and whenever
// the solver reports SAT, verifies the model by evaluation; whenever
// it reports UNSAT at width 8 over one variable, cross-checks by
// exhaustive enumeration.
func TestRandomConstraintModels(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mkExpr := func(x *expr.Expr, depth int) *expr.Expr {
		e := x
		for i := 0; i < depth; i++ {
			c := expr.C(uint32(r.Intn(256)), 8)
			switch r.Intn(7) {
			case 0:
				e = expr.Add(e, c)
			case 1:
				e = expr.Sub(e, c)
			case 2:
				e = expr.And(e, c)
			case 3:
				e = expr.Or(e, c)
			case 4:
				e = expr.Xor(e, c)
			case 5:
				e = expr.Mul(e, c)
			case 6:
				e = expr.Shl(e, expr.C(uint32(r.Intn(8)), 8))
			}
		}
		return e
	}
	for trial := 0; trial < 120; trial++ {
		s := New()
		x := expr.S("x", 8)
		var cons []*expr.Expr
		for i := 0; i < 1+r.Intn(3); i++ {
			lhs := mkExpr(x, 1+r.Intn(3))
			c := expr.C(uint32(r.Intn(256)), 8)
			switch r.Intn(3) {
			case 0:
				cons = append(cons, expr.Eq(lhs, c))
			case 1:
				cons = append(cons, expr.Ult(lhs, c))
			case 2:
				cons = append(cons, expr.Not(expr.Eq(lhs, c)))
			}
		}
		// Exhaustive ground truth.
		want := false
		for v := uint32(0); v < 256; v++ {
			env := map[string]uint32{"x": v}
			all := true
			for _, c := range cons {
				if expr.Eval(c, env) == 0 {
					all = false
					break
				}
			}
			if all {
				want = true
				break
			}
		}
		got := satisfiable(s, cons)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v cons=%v", trial, got, want, cons)
		}
		if got {
			m, ok := s.Model(cons)
			if !ok {
				t.Fatalf("trial %d: satisfiable but no model", trial)
			}
			for _, c := range cons {
				if expr.Eval(c, m) == 0 {
					t.Fatalf("trial %d: model %v violates %s", trial, m, c)
				}
			}
		}
	}
}

func TestMultiVariable(t *testing.T) {
	s := New()
	a, b := expr.S("a", 16), expr.S("b", 16)
	// a + b == 0x1234 && a == 0x1000
	cons := []*expr.Expr{
		expr.Eq(expr.Add(a, b), expr.C(0x1234, 16)),
		expr.Eq(a, expr.C(0x1000, 16)),
	}
	m, ok := s.Model(cons)
	if !ok || m["a"] != 0x1000 || m["b"] != 0x234 {
		t.Fatalf("model = %v", m)
	}
}

func TestVariableShift(t *testing.T) {
	s := New()
	x, k := expr.S("x", 32), expr.S("k", 32)
	// (x << k) == 0x100 && k == 4  forces x & 0xF0000000.. well x*16==0x100 → x low bits 0x10.
	cons := []*expr.Expr{
		expr.Eq(expr.Shl(x, k), expr.C(0x100, 32)),
		expr.Eq(k, expr.C(4, 32)),
	}
	m, ok := s.Model(cons)
	if !ok {
		t.Fatal("should be SAT")
	}
	if got := (m["x"] << 4); got != 0x100 {
		t.Fatalf("model x=%#x gives %#x", m["x"], got)
	}
}

func TestConcretizeAndValues(t *testing.T) {
	s := New()
	x := expr.S("x", 32)
	pc := []*expr.Expr{expr.Ult(x, expr.C(3, 32))}
	// The empty witness (x = 0) satisfies pc: its value comes first,
	// without a model.
	vals, models := s.Values(pc, x, nil, 10)
	if len(vals) != 3 || vals[0] != 0 || models[0] != nil {
		t.Fatalf("Values = %v, %v; want 3 values, the witness's 0 first", vals, models)
	}
	seen := map[uint32]bool{}
	for i, v := range vals {
		if v >= 3 || seen[v] {
			t.Fatalf("Values = %v", vals)
		}
		seen[v] = true
		if i > 0 && (expr.Eval(x, models[i]) != v || expr.Eval(pc[0], models[i]) == 0) {
			t.Fatalf("model %v does not produce value %d under pc", models[i], v)
		}
	}
	// Constant shortcut.
	if vals, _ := s.Values(nil, expr.C(7, 32), nil, 4); len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("const Values = %v", vals)
	}
}

func TestUnsatConcretize(t *testing.T) {
	s := New()
	x := expr.S("x", 8)
	pc := []*expr.Expr{expr.Eq(x, expr.C(1, 8)), expr.Eq(x, expr.C(2, 8))}
	if _, ok := s.Model(Slice(pc, x)); ok {
		t.Fatal("UNSAT pc should not concretize")
	}
}

func TestSlice(t *testing.T) {
	x, y, z := expr.S("x", 32), expr.S("y", 32), expr.S("z", 32)
	pc := []*expr.Expr{
		expr.Ult(x, expr.C(10, 32)),            // touches x
		expr.Eq(y, expr.Add(x, expr.C(1, 32))), // links y to x
		expr.Ult(z, expr.C(5, 32)),             // independent
	}
	got := Slice(pc, expr.Eq(y, expr.C(3, 32)))
	if len(got) != 2 {
		t.Fatalf("slice kept %d constraints, want 2 (x and y chain)", len(got))
	}
	for _, c := range got {
		if slices.Contains(c.Syms(), z) {
			t.Fatal("independent constraint retained")
		}
	}
	// Slicing must not change satisfiability verdicts.
	s := New()
	cond := expr.Ult(expr.C(10, 32), y) // y > 10 contradicts y = x+1, x < 10... x<10 -> y<=10
	if may(s, pc, cond) {
		t.Error("y>10 should be infeasible under x<10, y=x+1")
	}
	if !may(s, pc, expr.Eq(z, expr.C(4, 32))) {
		t.Error("z==4 feasible")
	}
	if may(s, pc, expr.Eq(z, expr.C(7, 32))) {
		t.Error("z==7 must respect the z<5 constraint")
	}
	// Constant target slices to nothing.
	if got := Slice(pc, expr.C(1, 1)); got != nil {
		t.Error("constant target should slice to empty")
	}
}

// TestSliceConcretizeRespectsConstraints checks the contract the
// engine's witnesses rest on: a model of a sliced query, laid over an
// assignment satisfying the whole path condition, satisfies it too.
func TestSliceConcretizeRespectsConstraints(t *testing.T) {
	s := New()
	x, z := expr.S("x", 8), expr.S("z", 8)
	pc := []*expr.Expr{
		expr.Ult(expr.C(100, 8), x), // x > 100
		expr.Ult(z, expr.C(3, 8)),
	}
	w := map[string]uint32{"x": 101}
	vals, models := s.Values(pc, z, w, 10)
	if len(vals) != 3 {
		t.Errorf("Values(z) = %v", vals)
	}
	for i, m := range models[1:] {
		over := maps.Clone(w)
		maps.Copy(over, m)
		for _, c := range pc {
			if expr.Eval(c, over) == 0 {
				t.Fatalf("value %d: model %v over %v violates %s", vals[i+1], m, w, c)
			}
		}
	}
	vals, _ = s.Values(pc, x, w, 4)
	for _, v := range vals {
		if v <= 100 {
			t.Errorf("Values(x) = %v", vals)
		}
	}
}

func TestCache(t *testing.T) {
	s := New()
	x := expr.S("x", 32)
	c := expr.Eq(x, expr.C(1, 32))
	satisfiable(s, []*expr.Expr{c})
	satisfiable(s, []*expr.Expr{c})
	if q, h := s.Stats(); q != 2 || h != 1 {
		t.Fatalf("queries=%d hits=%d", q, h)
	}
}

func TestByteMemoryPattern(t *testing.T) {
	// The pattern symbolic memory produces: store a 32-bit symbol
	// byte-wise, reload 16 bits, compare. Checks Trunc/Lshr/Concat
	// blasting against evaluation.
	s := New()
	x := expr.S("x", 32)
	lo := expr.ExtractByte(x, 0)
	hi := expr.ExtractByte(x, 1)
	v16 := expr.FromBytes16(lo, hi)
	cons := []*expr.Expr{expr.Eq(v16, expr.C(0xBEEF, 16))}
	m, ok := s.Model(cons)
	if !ok || m["x"]&0xFFFF != 0xBEEF {
		t.Fatalf("model = %v", m)
	}
}

func TestIteBlasting(t *testing.T) {
	s := New()
	x := expr.S("x", 8)
	cond := expr.Ult(x, expr.C(8, 8))
	e := expr.Ite(cond, expr.C(1, 8), expr.C(2, 8))
	// ite == 1 forces x < 8.
	m, ok := s.Model([]*expr.Expr{expr.Eq(e, expr.C(1, 8))})
	if !ok || m["x"] >= 8 {
		t.Fatalf("model = %v", m)
	}
	m, ok = s.Model([]*expr.Expr{expr.Eq(e, expr.C(2, 8))})
	if !ok || m["x"] < 8 {
		t.Fatalf("model = %v", m)
	}
}

// TestConcurrentSolving exercises the solver from many goroutines at
// once — the parallel exploration mode shares solvers across workers
// — while Stats and CacheSize are polled mid-flight. Run under
// `go test -race` this doubles as the data-race regression test for
// the mutex-guarded cache and atomic counters.
func TestConcurrentSolving(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := expr.S(fmt.Sprintf("x%d", g%3), 16)
			for i := 0; i < 40; i++ {
				want := uint32(i % 100)
				c := expr.Eq(expr.Add(x, expr.C(1, 16)), expr.C(want+1, 16))
				if !satisfiable(s, []*expr.Expr{c}) {
					t.Errorf("x==%d should be SAT", want)
					return
				}
				if m, ok := s.Model([]*expr.Expr{c}); !ok || m[x.Name] != want {
					t.Errorf("model = %v, want x=%d", m, want)
					return
				}
				if satisfiable(s, []*expr.Expr{c, expr.Not(c)}) {
					t.Error("c && !c should be UNSAT")
					return
				}
			}
		}(g)
	}
	// Poll statistics while queries are in flight: must be safe and
	// monotone.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastQ int64
		for i := 0; i < 100; i++ {
			q, h := s.Stats()
			if q < lastQ {
				t.Errorf("queries went backwards: %d -> %d", lastQ, q)
				return
			}
			if h > q {
				t.Errorf("hits %d exceed queries %d", h, q)
				return
			}
			lastQ = q
			_ = s.CacheSize()
		}
	}()
	wg.Wait()
	<-done
	if q, _ := s.Stats(); q == 0 {
		t.Error("no queries recorded")
	}
}

// TestCacheBound verifies the query cache cannot grow past its limit:
// overflow flushes an epoch and is reported via Evictions.
func TestCacheBound(t *testing.T) {
	s := New()
	s.cacheLimit = 8
	x := expr.S("x", 32)
	for i := 0; i < 100; i++ {
		c := expr.Eq(x, expr.C(uint32(i), 32))
		if !satisfiable(s, []*expr.Expr{c}) {
			t.Fatalf("x==%d should be SAT", i)
		}
		if got := s.CacheSize(); got > 8 {
			t.Fatalf("cache grew to %d entries past limit 8", got)
		}
	}
	if s.Evictions() == 0 {
		t.Error("expected at least one epoch flush")
	}
}

// TestIncrementalMatchesOneShot is the equivalence regression for the
// branch-query path: across random path-constraint sequences,
// MayBeTrue — slicing plus the shared SAT session — must answer
// exactly like the referenceSat one-shot solve of the whole, unsliced
// path condition.
func TestIncrementalMatchesOneShot(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		inc := New()
		var pc []*expr.Expr
		oneShot := func(cond *expr.Expr) bool {
			_, ok := referenceSat(append(pc[:len(pc):len(pc)], cond))
			return ok
		}
		vars := []*expr.Expr{expr.S("ia", 8), expr.S("ib", 8), expr.S("ic", 8)}
		for step := 0; step < 8; step++ {
			x := vars[r.Intn(len(vars))]
			c := expr.C(uint32(r.Intn(256)), 8)
			var cond *expr.Expr
			switch r.Intn(4) {
			case 0:
				cond = expr.Ult(x, c)
			case 1:
				cond = expr.Eq(expr.Add(x, c), expr.C(uint32(r.Intn(256)), 8))
			case 2:
				cond = expr.Not(expr.Eq(expr.And(x, c), expr.C(0, 8)))
			default:
				cond = expr.Slt(x, c)
			}
			a, b := may(inc, pc, cond), oneShot(cond)
			if a != b {
				t.Fatalf("trial %d step %d: incremental=%v one-shot=%v for %s under %v",
					trial, step, a, b, cond, pc)
			}
			na, nb := may(inc, pc, expr.Not(cond)), oneShot(expr.Not(cond))
			if na != nb {
				t.Fatalf("trial %d step %d: negated divergence for %s", trial, step, cond)
			}
			// Extend the path like the engine does: constrain a feasible
			// side so the next iteration reuses the session prefix.
			switch {
			case a:
				pc = append(pc, cond)
			case na:
				pc = append(pc, expr.Not(cond))
			}
		}
		if inc.Search().SessionsExtended == 0 {
			t.Error("incremental solver never reused a session")
		}
	}
}

// TestModelCache checks that models are cached beside the verdicts:
// a repeated Model call for the same constraint set is served from the
// cache, and the answer binds exactly the query's symbol and satisfies
// its constraint.
func TestModelCache(t *testing.T) {
	s := New()
	x := expr.S("mc", 16)
	cons := []*expr.Expr{expr.Eq(expr.Mul(x, expr.C(3, 16)), expr.C(0x30, 16))}
	m1, ok := s.Model(cons)
	if !ok {
		t.Fatal("SAT expected")
	}
	m2, ok := s.Model(cons)
	if _, hits := s.Stats(); !ok || hits != 1 {
		t.Fatal("second Model call did not hit the cache")
	}
	for _, m := range []map[string]uint32{m1, m2} {
		if len(m) != 1 || expr.Eval(cons[0], m) == 0 {
			t.Fatalf("cached model %v violates constraint", m)
		}
	}
}

// TestFingerprintProperties pins the fingerprint contract: order
// insensitivity, and sensitivity to membership and multiplicity.
func TestFingerprintProperties(t *testing.T) {
	x, y := expr.S("fpx", 8), expr.S("fpy", 8)
	a := expr.Ult(x, expr.C(5, 8))
	b := expr.Eq(y, expr.C(7, 8))
	c := expr.Not(expr.Eq(x, y))
	if fingerprint([]*expr.Expr{a, b, c}) != fingerprint([]*expr.Expr{c, a, b}) {
		t.Error("fingerprint is order sensitive")
	}
	if fingerprint([]*expr.Expr{a, b}) == fingerprint([]*expr.Expr{a, b, c}) {
		t.Error("fingerprint ignores membership")
	}
	if fingerprint([]*expr.Expr{a}) == fingerprint([]*expr.Expr{a, a}) {
		t.Error("fingerprint ignores multiplicity")
	}
	// Interned reconstruction fingerprints identically.
	a2 := expr.Ult(expr.S("fpx", 8), expr.C(5, 8))
	if fingerprint([]*expr.Expr{a}) != fingerprint([]*expr.Expr{a2}) {
		t.Error("reconstructed constraint fingerprints differently")
	}
}

// benchConstraints builds a realistic path condition: a chain of
// branch conditions over a handful of hardware symbols.
func benchConstraints(n int) []*expr.Expr {
	out := make([]*expr.Expr, 0, n)
	for i := 0; i < n; i++ {
		x := expr.S(fmt.Sprintf("hw_%d", i%6), 32)
		e := expr.And(expr.Add(x, expr.C(uint32(i), 32)), expr.C(0xFF, 32))
		out = append(out, expr.Ult(e, expr.C(uint32(64+i%32), 32)))
	}
	return out
}

// legacyFingerprint is the pre-interning implementation (structural
// hash + size rendered to a sorted, joined string), kept here as the
// baseline for BenchmarkSolverFingerprint.
func legacyFingerprint(constraints []*expr.Expr) string {
	parts := make([]string, len(constraints))
	for i, c := range constraints {
		parts[i] = fmt.Sprintf("%016x:%d", c.Hash(), c.Size())
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// BenchmarkSolverFingerprint measures the query-cache key on a
// 32-constraint path condition: the interned-ID hash against the
// legacy string rendering it replaced. The allocation column is the
// point — the uint64 fingerprint allocates nothing.
func BenchmarkSolverFingerprint(b *testing.B) {
	cons := benchConstraints(32)
	b.Run("interned-ids", func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= fingerprint(cons)
		}
		_ = sink
	})
	b.Run("legacy-string", func(b *testing.B) {
		b.ReportAllocs()
		var n int
		for i := 0; i < b.N; i++ {
			n += len(legacyFingerprint(cons))
		}
		_ = n
	})
}

// BenchmarkMayBeTrue measures the branch-feasibility hot path on a
// growing path condition: MayBeTrue on its incremental session against
// a referenceSat one-shot solve of the same sliced query.
func BenchmarkMayBeTrue(b *testing.B) {
	for _, mode := range []struct {
		name  string
		query func(s *Solver, pc []*expr.Expr, cond *expr.Expr) bool
	}{
		{"incremental", may},
		{"one-shot", func(_ *Solver, pc []*expr.Expr, cond *expr.Expr) bool {
			_, ok := referenceSat(append(Slice(pc, cond), cond))
			return ok
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := New()
				x := expr.S("bm", 16)
				var pc []*expr.Expr
				for step := 0; step < 12; step++ {
					// Each condition pins different bits of x, so cached
					// models rarely satisfy the next query and the SAT
					// core does real work at every branch.
					cond := expr.Eq(
						expr.And(expr.Add(x, expr.C(uint32(step*13), 16)), expr.C(0xFF, 16)),
						expr.C(uint32(step*37)&0xFF, 16))
					if mode.query(s, pc, cond) {
						pc = append(pc, cond)
					} else {
						pc = append(pc, expr.Not(cond))
					}
				}
			}
		})
	}
}

func TestSolverArenaScoped(t *testing.T) {
	// A solver bound to a private arena must not grow the default
	// arena when it derives expressions (Values exclusions).
	ar := expr.NewArena()
	s := NewWith(Config{Arena: ar})
	x := ar.S("arsx", 32)
	pc := []*expr.Expr{ar.Ult(x, ar.C(4, 32))}
	before := expr.InternedNodes()
	vals, _ := s.Values(pc, x, nil, 8)
	if len(vals) != 4 {
		t.Fatalf("expected 4 values below 4, got %v", vals)
	}
	if may(s, pc, ar.Not(ar.Ult(x, ar.C(100, 32)))) {
		t.Fatal("x < 4 implies x < 100")
	}
	if after := expr.InternedNodes(); after != before {
		t.Fatalf("arena-scoped solver grew the default arena: %d -> %d", before, after)
	}
}

// TestSearchStats checks the SAT-level counters: a Model-only query
// sequence is decided on the session and counts its solves there, the
// solves of both the Model-only and the branch-query sequence count
// decisions, and a rerun of either sequence repeats every count.
func TestSearchStats(t *testing.T) {
	run := func(modelOnly bool) SearchStats {
		s := New()
		r := rand.New(rand.NewSource(5))
		vars := []*expr.Expr{expr.S("sa", 8), expr.S("sb", 8), expr.S("sc", 8)}
		var pc []*expr.Expr
		for step := 0; step < 12; step++ {
			x := vars[r.Intn(len(vars))]
			// A fresh equality, so most queries miss the cache and reach
			// the session.
			cond := expr.Eq(expr.Add(x, vars[r.Intn(len(vars))]), expr.C(uint32(r.Intn(256)), 8))
			if modelOnly {
				if _, ok := s.Model(append(pc[:len(pc):len(pc)], cond)); ok {
					pc = append(pc, cond)
				}
				continue
			}
			if may(s, pc, cond) {
				pc = append(pc, cond)
			}
			s.Model(pc)
		}
		return s.Search()
	}
	for _, modelOnly := range []bool{true, false} {
		a, b := run(modelOnly), run(modelOnly)
		if a != b {
			t.Fatalf("modelOnly=%v: counts differ between identical runs: %+v vs %+v", modelOnly, a, b)
		}
		if a.SessionsRebuilt != 1 || a.SessionsExtended == 0 {
			t.Errorf("modelOnly=%v: session solves not counted: %+v", modelOnly, a)
		}
		if a.Decisions == 0 {
			t.Errorf("modelOnly=%v: no decisions counted: %+v", modelOnly, a)
		}
	}
}
