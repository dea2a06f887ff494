package solver

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"revnic/internal/expr"
)

// randConstraint builds a random width-1 constraint in ar over vars:
// comparisons of arithmetic, Ite and constant terms, with symbols
// repeated at will.
func randConstraint(ar *expr.Arena, r *rand.Rand, vars []string) *expr.Expr {
	var term func(depth int) *expr.Expr
	term = func(depth int) *expr.Expr {
		if depth == 0 || r.Intn(4) == 0 {
			if r.Intn(3) == 0 {
				return ar.C(uint32(r.Intn(256)), 8)
			}
			return ar.S(vars[r.Intn(len(vars))], 8)
		}
		switch r.Intn(5) {
		case 0:
			return ar.Add(term(depth-1), term(depth-1))
		case 1:
			return ar.Xor(term(depth-1), term(depth-1))
		case 2:
			return ar.And(term(depth-1), ar.C(uint32(r.Intn(256)), 8))
		case 3:
			return ar.Ite(ar.Ult(term(depth-1), term(depth-1)), term(depth-1), term(depth-1))
		default:
			return ar.Mul(term(depth-1), term(depth-1))
		}
	}
	switch r.Intn(8) {
	case 0:
		return expr.Bool(r.Intn(2) == 0)
	case 1, 2, 3:
		return ar.Eq(term(2), term(2))
	case 4, 5:
		return ar.Ult(term(2), term(2))
	default:
		return ar.Not(ar.Eq(term(5), term(5)))
	}
}

// checkSliceAgainstRef compares Slice and queryVars with the
// name-based reference on one query.
func checkSliceAgainstRef(t *testing.T, what string, pc []*expr.Expr, cond *expr.Expr) {
	t.Helper()
	got, want := Slice(pc, cond), RefSlice(pc, cond)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Slice kept %d constraints, reference %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	full := append(slices.Clip(got), cond)
	if names, ref := SymNames(queryVars(full)), RefSymNames(full...); !slices.Equal(names, ref) {
		t.Fatalf("%s: queryVars %v, reference %v", what, names, ref)
	}
}

// TestSliceMatchesReference checks Slice and queryVars against a
// name-based fixed point and DAG walk on random path conditions built
// in one arena: repeated symbols, constants, Ite, and constraints over
// more symbols than a node lists at intern time.
func TestSliceMatchesReference(t *testing.T) {
	ar := expr.NewArena()
	vars := make([]string, 48)
	for i := range vars {
		vars[i] = fmt.Sprintf("sl%d", i)
	}
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		// Few names make long dependency chains, many make islands.
		pool := vars[:2+r.Intn(len(vars)-2)]
		pc := make([]*expr.Expr, r.Intn(24))
		for i := range pc {
			pc[i] = randConstraint(ar, r, pool)
		}
		for q := 0; q < 6; q++ {
			checkSliceAgainstRef(t, fmt.Sprintf("trial %d query %d", trial, q), pc, randConstraint(ar, r, pool))
		}
	}
}

// TestSliceConcurrentIntern has two goroutines build path conditions
// over overlapping symbols in one arena at once, slicing as they go:
// every slice must equal the reference.
func TestSliceConcurrentIntern(t *testing.T) {
	ar := expr.NewArena()
	vars := []string{"ca", "cb", "cc", "cd", "ce", "cf", "cg", "ch"}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			var pc []*expr.Expr
			for step := 0; step < 150; step++ {
				cond := randConstraint(ar, r, vars)
				if got, want := Slice(pc, cond), RefSlice(pc, cond); !slices.Equal(got, want) {
					errs <- fmt.Sprintf("goroutine %d step %d: Slice %v, reference %v", g, step, got, want)
					return
				}
				pc = append(pc, cond)
				if len(pc) > 20 {
					pc = pc[len(pc)-20:]
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestLiveConstraints checks the constant stripping: true constraints
// go, a false one makes the query UNSAT, and constraints without a
// constant come back as the same slice, with no allocation.
func TestLiveConstraints(t *testing.T) {
	x := expr.S("lcx", 8)
	a, b := expr.Ult(x, expr.C(9, 8)), expr.Not(expr.Eq(x, expr.C(3, 8)))
	if live, unsat := liveConstraints([]*expr.Expr{a, expr.Bool(true), b}); unsat || !slices.Equal(live, []*expr.Expr{a, b}) {
		t.Fatalf("stripping true: %v, unsat %v", live, unsat)
	}
	if _, unsat := liveConstraints([]*expr.Expr{a, expr.Bool(false), b}); !unsat {
		t.Fatal("a false constraint must make the query UNSAT")
	}
	in := []*expr.Expr{a, b}
	if live, _ := liveConstraints(in); &live[0] != &in[0] || len(live) != 2 {
		t.Fatal("constraints without a constant were copied")
	}
	if n := testing.AllocsPerRun(10, func() { liveConstraints(in) }); n != 0 {
		t.Fatalf("liveConstraints allocated %.0f times without a constant", n)
	}
}
