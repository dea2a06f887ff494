// Query memoization: the fingerprint-keyed answer cache and
// constraint-independence slicing over the symbol lists expressions
// carry. Everything here is deterministic.
package solver

import (
	"math/bits"
	"slices"

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
// Without a constant among them it returns constraints itself, so the
// caller must not append to the result in place (query clips its
// capacity before it appends the condition).
func liveConstraints(constraints []*expr.Expr) (live []*expr.Expr, unsat bool) {
	if !slices.ContainsFunc(constraints, func(c *expr.Expr) bool { return c.Kind == expr.KConst }) {
		return constraints, false
	}
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

// Slice returns the subset of constraints transitively sharing
// symbolic variables with target — KLEE's constraint-independence
// optimization — in pc order. Because path conditions are built
// incrementally from feasible extensions, the discarded independent
// constraints are satisfiable on their own, so SAT(slice ∧ target) ⇔
// SAT(pc ∧ target). The fixed point runs over a bitset of the
// symbols' arena indices, read from the symbol list every node
// carries, so slicing walks no expression. Symbols of two arenas may
// share an index; mixing arenas can only keep extra constraints.
func Slice(pc []*expr.Expr, target *expr.Expr) []*expr.Expr {
	tsyms := target.Syms()
	if len(tsyms) == 0 {
		return nil
	}
	// Stack buffers cover the common sizes: 512 symbols (the corpus
	// drivers intern 89 to 321 per exploration), 64 constraints.
	var wantBuf [8]uint64
	var usedBuf [64]bool
	want := addSyms(wantBuf[:0], tsyms)
	used := usedBuf[:]
	if len(pc) > len(used) {
		used = make([]bool, len(pc))
	}
	n := 0
	for changed := true; changed; {
		changed = false
		for i, c := range pc {
			if used[i] {
				continue
			}
			if cs := c.Syms(); meetsSyms(want, cs) {
				used[i] = true
				n++
				changed = true
				want = addSyms(want, cs)
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*expr.Expr, 0, n)
	for i, c := range pc {
		if used[i] {
			out = append(out, c)
		}
	}
	return out
}

// addSyms adds the indices of syms to the bitset set.
func addSyms(set []uint64, syms []*expr.Expr) []uint64 {
	for _, s := range syms {
		w := s.SymIndex() / 64
		for len(set) <= w {
			set = append(set, 0)
		}
		set[w] |= 1 << (s.SymIndex() % 64)
	}
	return set
}

// meetsSyms reports whether the bitset set holds any of syms.
func meetsSyms(set []uint64, syms []*expr.Expr) bool {
	for _, s := range syms {
		if w := s.SymIndex() / 64; w < len(set) && set[w]&(1<<(s.SymIndex()%64)) != 0 {
			return true
		}
	}
	return false
}

// sliceObserver, when set (by tests only), sees every slice MayBeTrue
// takes.
var sliceObserver func(pc []*expr.Expr, cond *expr.Expr, slice []*expr.Expr)

// queryVars returns the symbols of the constraints, sorted by arena
// index: the symbols a query's model binds. Its order decides nothing
// but the order a model map is filled in.
func queryVars(cons []*expr.Expr) []*expr.Expr { return expr.SymsOf(cons) }

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
