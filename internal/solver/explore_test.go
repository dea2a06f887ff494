package solver_test

import (
	"slices"
	"testing"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/solver"
	"revnic/internal/symexec"
)

// TestSliceRTL8139Exploration checks every slice MayBeTrue takes in a
// serial RTL8139 exploration, and the symbols its model binds, against
// the name-based reference.
func TestSliceRTL8139Exploration(t *testing.T) {
	info, err := drivers.ByName("RTL8139")
	if err != nil {
		t.Fatal(err)
	}
	var n, bad int
	stop := solver.ObserveSlices(func(pc []*expr.Expr, cond *expr.Expr, slice []*expr.Expr) {
		n++
		if want := solver.RefSlice(pc, cond); !slices.Equal(slice, want) {
			bad++
			if bad <= 3 {
				t.Errorf("query %d: slice of %d constraints, reference %d", n, len(slice), len(want))
			}
		}
		full := append(slices.Clip(slice), cond)
		if got, want := solver.SymNames(expr.SymsOf(full)), solver.RefSymNames(full...); !slices.Equal(got, want) {
			bad++
			if bad <= 3 {
				t.Errorf("query %d: symbols %v, reference %v", n, got, want)
			}
		}
	})
	defer stop()
	if _, err := core.ReverseEngineer(info.Program, core.Options{
		Shell: core.ShellConfig(info), DriverName: info.Name,
		Engine: symexec.Config{Workers: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("the exploration asked no MayBeTrue query")
	}
	if bad > 0 {
		t.Fatalf("%d of %d queries differ from the reference", bad, n)
	}
	t.Logf("%d MayBeTrue slices match the reference", n)
}
