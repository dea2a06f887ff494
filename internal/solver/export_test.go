package solver

import (
	"maps"
	"slices"

	"revnic/internal/expr"
)

// ObserveSlices makes f see every slice MayBeTrue takes until the
// returned function is called.
func ObserveSlices(f func(pc []*expr.Expr, cond *expr.Expr, slice []*expr.Expr)) (stop func()) {
	sliceObserver = f
	return func() { sliceObserver = nil }
}

// RefSymNames is the reference symbol set of the constraints: the
// sorted distinct names a plain walk of their DAG finds.
func RefSymNames(cons ...*expr.Expr) []string {
	set, seen := map[string]bool{}, map[*expr.Expr]bool{}
	var walk func(e *expr.Expr)
	walk = func(e *expr.Expr) {
		if e == nil || seen[e] {
			return
		}
		seen[e] = true
		if e.Kind == expr.KSym {
			set[e.Name] = true
		}
		walk(e.A)
		walk(e.B)
		walk(e.C)
	}
	for _, c := range cons {
		walk(c)
	}
	return slices.Sorted(maps.Keys(set))
}

// RefSlice is the reference Slice: the constraint-independence fixed
// point over the constraints' names.
func RefSlice(pc []*expr.Expr, target *expr.Expr) []*expr.Expr {
	want := map[string]bool{}
	for _, n := range RefSymNames(target) {
		want[n] = true
	}
	used := make([]bool, len(pc))
	for changed := len(want) > 0; changed; {
		changed = false
		for i, c := range pc {
			names := RefSymNames(c)
			if used[i] || !slices.ContainsFunc(names, func(n string) bool { return want[n] }) {
				continue
			}
			used[i], changed = true, true
			for _, n := range names {
				want[n] = true
			}
		}
	}
	var out []*expr.Expr
	for i, c := range pc {
		if used[i] {
			out = append(out, c)
		}
	}
	return out
}

// SymNames returns the sorted names of a symbol list.
func SymNames(syms []*expr.Expr) []string {
	names := make([]string, len(syms))
	for i, s := range syms {
		names[i] = s.Name
	}
	slices.Sort(names)
	return names
}
