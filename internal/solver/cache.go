// Query memoization: the fingerprint-keyed answer cache,
// constraint-independence slicing, and the shared per-expression
// variable-set cache underneath them. Everything here is
// deterministic.
package solver

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"revnic/internal/expr"
)

// mix64 is the splitmix64 finalizer, used to spread interned IDs
// before the order-insensitive combine.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// fingerprint keys the caches on an order-insensitive hash of the
// constraints' interned IDs: equal constraint multisets hash equally
// regardless of order, with no allocation and no tree walk — the
// payoff of hash-consed expressions at this layer.
func fingerprint(constraints []*expr.Expr) uint64 {
	var sum, xor uint64
	for _, c := range constraints {
		h := mix64(c.ID())
		sum += h
		xor ^= bits.RotateLeft64(h, 17)
	}
	return mix64(sum ^ mix64(xor) ^ uint64(len(constraints)))
}

// liveConstraints strips constant-true constraints and reports
// whether a constant-false one makes the conjunction trivially UNSAT.
func liveConstraints(constraints []*expr.Expr) (live []*expr.Expr, unsat bool) {
	for _, c := range constraints {
		if c.IsFalse() {
			return nil, true
		}
		if !c.IsTrue() {
			live = append(live, c)
		}
	}
	return live, false
}

// exprMeta memoizes per-expression sorted variable names keyed by
// interned ID. It is process-global rather
// than per-solver: interned IDs are unique across arenas, so one
// bounded table serves every solver — this is also what unifies the
// package-level Slice and the solver's query path on a single cached
// variable-set derivation (they used to diverge: Slice re-walked
// every expression on every call).
var exprMeta = struct {
	sync.Mutex
	vars map[uint64][]string
}{vars: map[uint64][]string{}}

const exprMetaLimit = cacheCap

// varsOf returns the sorted variable names of e, memoized per
// interned expression ID.
func varsOf(e *expr.Expr) []string {
	id := e.ID()
	if id == 0 {
		return expr.VarNames(e)
	}
	exprMeta.Lock()
	if v, ok := exprMeta.vars[id]; ok {
		exprMeta.Unlock()
		return v
	}
	exprMeta.Unlock()
	names := expr.VarNames(e)
	exprMeta.Lock()
	if len(exprMeta.vars) >= exprMetaLimit {
		exprMeta.vars = map[uint64][]string{}
	}
	exprMeta.vars[id] = names
	exprMeta.Unlock()
	return names
}

// sliceVars is the constraint-independence fixed point underneath
// Slice.
func sliceVars(pc []*expr.Expr, vars [][]string, tvars []string) []*expr.Expr {
	if len(tvars) == 0 {
		return nil
	}
	want := make(map[string]bool, len(tvars))
	for _, v := range tvars {
		want[v] = true
	}
	used := make([]bool, len(pc))
	for changed := true; changed; {
		changed = false
		for i := range pc {
			if used[i] {
				continue
			}
			hit := false
			for _, v := range vars[i] {
				if want[v] {
					hit = true
					break
				}
			}
			if hit {
				used[i] = true
				changed = true
				for _, v := range vars[i] {
					want[v] = true
				}
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

// Slice returns the subset of constraints transitively sharing
// symbolic variables with target — KLEE's constraint-independence
// optimization. Because path conditions are built incrementally from
// feasible extensions, the discarded independent constraints are
// satisfiable on their own, so SAT(slice ∧ target) ⇔ SAT(pc ∧ target).
// Per-constraint variable sets come from the shared ID-keyed cache,
// so repeated slicing of a growing path condition walks each distinct
// constraint once.
func Slice(pc []*expr.Expr, target *expr.Expr) []*expr.Expr {
	tvars := varsOf(target)
	if len(tvars) == 0 {
		return nil
	}
	vars := make([][]string, len(pc))
	for i, c := range pc {
		vars[i] = varsOf(c)
	}
	return sliceVars(pc, vars, tvars)
}

// queryVars returns the sorted, distinct variable names of the
// constraints: the symbols a query's model binds.
func queryVars(cons []*expr.Expr) []string {
	if len(cons) == 1 {
		return varsOf(cons[0])
	}
	var names []string
	for _, c := range cons {
		names = append(names, varsOf(c)...)
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// flushLocked drops one cache epoch.
func (s *Solver) flushLocked() {
	s.cache = map[uint64]map[string]uint32{}
	s.evictions.Add(1)
}

// cacheGet looks up a memoized answer: the model of a SAT query, nil
// for an UNSAT one.
func (s *Solver) cacheGet(fp uint64) (map[string]uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.cache[fp]
	return m, ok
}

// cachePut memoizes an answer, flushing the epoch first if the cache
// is full. The model is owned by the solver afterwards.
func (s *Solver) cachePut(fp uint64, m map[string]uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cache) >= s.cacheLimit {
		s.flushLocked()
	}
	s.cache[fp] = m
}
