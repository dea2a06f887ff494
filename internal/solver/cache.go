// Query memoization: the fingerprint-keyed verdict/model caches, the
// per-variable-set counterexample index (KLEE's full counterexample
// cache, replacing the old 4-entry recency ring),
// constraint-independence slicing, and the shared per-expression
// variable-set cache underneath them. Everything here is
// deterministic.
package solver

import (
	"math/bits"
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

// querySig is the order-insensitive variable-set signature of a
// (sliced, live) constraint set — the key that buckets the
// counterexample index.
func querySig(cons []*expr.Expr) uint64 {
	if len(cons) == 1 {
		return expr.VarSetSignature(varsOf(cons[0]))
	}
	seen := make(map[string]bool, 8)
	union := make([]string, 0, 8)
	for _, c := range cons {
		for _, n := range varsOf(c) {
			if !seen[n] {
				seen[n] = true
				union = append(union, n)
			}
		}
	}
	return expr.VarSetSignature(union)
}

// cxIndex is the counterexample index shared by all queries of one
// solver (guarded by Solver.mu):
//
//   - SAT side: models bucketed by the variable-set signature of the
//     query that produced them, newest first, plus a small global
//     recency list (the old ring's behavior, kept as a fallback for
//     queries over different variable sets). A candidate model
//     proves SAT by evaluation.
//   - UNSAT side: stored constraint-ID sets of queries proven UNSAT,
//     anchored by their smallest ID. Conjunction is monotone, so any
//     stored set that is a subset of a query's ID set proves the
//     query UNSAT without solving — the "stronger query" half of
//     KLEE's cache subsumption.
//
// cxModels sizes both the per-bucket model lists and the recency
// list. Like every cache here the index affects performance only,
// never answers, and it is never fed aborted verdicts, so its contents
// are bit-identical run-to-run.
type cxIndex struct {
	byVars map[uint64][]map[string]uint32
	recent [cxModels]map[string]uint32
	pos    int
	unsat  map[uint64][][]uint64
	unsatN int
}

const (
	// cxMaxUnsatSets bounds the UNSAT side; overflowing clears it
	// (epoch semantics, same spirit as the verdict cache).
	cxMaxUnsatSets = 1024
	// cxMaxUnsatPerAnchor bounds one anchor's list so subset probes
	// stay cheap.
	cxMaxUnsatPerAnchor = 8
	// cxMaxUnsatLen skips storing very wide UNSAT sets: their subset
	// checks cost more than they save.
	cxMaxUnsatLen = 32
	// cxMaxBuckets bounds the SAT side's bucket count.
	cxMaxBuckets = cacheCap
)

func newCxIndex() *cxIndex {
	ix := &cxIndex{}
	ix.reset()
	return ix
}

// reset drops the index contents.
func (ix *cxIndex) reset() {
	*ix = cxIndex{
		byVars: map[uint64][]map[string]uint32{},
		unsat:  map[uint64][][]uint64{},
	}
}

// addModel records a freshly solved witness for a query with the
// given variable-set signature.
func (ix *cxIndex) addModel(sig uint64, m map[string]uint32) {
	if len(ix.byVars) >= cxMaxBuckets {
		ix.byVars = map[uint64][]map[string]uint32{}
	}
	bucket := ix.byVars[sig]
	next := make([]map[string]uint32, 0, cxModels)
	next = append(next, m)
	for _, old := range bucket {
		if len(next) >= cxModels {
			break
		}
		next = append(next, old)
	}
	ix.byVars[sig] = next
	ix.recent[ix.pos%cxModels] = m
	ix.pos++
}

// addUnsat records a sorted, deduplicated constraint-ID set proven
// UNSAT.
func (ix *cxIndex) addUnsat(ids []uint64) {
	if len(ids) == 0 || len(ids) > cxMaxUnsatLen {
		return
	}
	if ix.unsatN >= cxMaxUnsatSets {
		ix.unsat = map[uint64][][]uint64{}
		ix.unsatN = 0
	}
	anchor := ids[0]
	bucket := ix.unsat[anchor]
	if len(bucket) >= cxMaxUnsatPerAnchor {
		return
	}
	ix.unsat[anchor] = append(bucket, ids)
	ix.unsatN++
}

// subsetSorted reports whether every element of sub (sorted,
// duplicate-free) occurs in super (sorted, duplicates allowed).
func subsetSorted(sub, super []uint64) bool {
	j := 0
	for _, v := range sub {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			return false
		}
		j++
	}
	return true
}

// flushLocked drops one cache epoch: verdicts, models and the
// counterexample index go together so they can never disagree.
func (s *Solver) flushLocked() {
	s.cache = map[uint64]bool{}
	s.models = map[uint64]map[string]uint32{}
	s.cx.reset()
	s.evictions.Add(1)
}

// cacheGet looks up a memoized query verdict.
func (s *Solver) cacheGet(fp uint64) (bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.cache[fp]
	return r, ok
}

// cachePut memoizes a query verdict, flushing the epoch first if the
// cache is full.
func (s *Solver) cachePut(fp uint64, r bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cache) >= s.cacheLimit {
		s.flushLocked()
	}
	s.cache[fp] = r
}

// modelGet looks up a cached model for the exact constraint set.
func (s *Solver) modelGet(fp uint64) (map[string]uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.models[fp]
	return m, ok
}

// storeModel caches a freshly solved witness under the query
// fingerprint and feeds the counterexample index. The map is owned by
// the solver afterwards: callers receive copies.
func (s *Solver) storeModel(fp, sig uint64, m map[string]uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.models) >= s.cacheLimit {
		s.flushLocked()
	}
	s.models[fp] = m
	s.cx.addModel(sig, m)
}

// rememberModel caches a reused witness under a new fingerprint
// without touching the counterexample index — the model is already
// indexed, and re-feeding it would evict distinct witnesses until the
// index held nothing but duplicates.
func (s *Solver) rememberModel(fp uint64, m map[string]uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.models) >= s.cacheLimit {
		s.flushLocked()
	}
	s.models[fp] = m
}

// trySat probes the counterexample index's SAT side: the exact
// variable-set bucket first (most recent first), then the global
// recency list. A candidate model satisfying every constraint proves
// SAT for the price of an evaluation.
func (s *Solver) trySat(sig uint64, constraints []*expr.Expr) (map[string]uint32, bool) {
	// Snapshot candidates into a stack buffer: this runs on every
	// query that misses the verdict cache, and a heap copy per probe
	// would undo the zero-allocation property of the fingerprint path.
	// A bucket holds at most cxModels models, so the buffer never
	// grows.
	var buf [2 * cxModels]map[string]uint32
	cand := buf[:0]
	s.mu.Lock()
	cand = append(cand, s.cx.byVars[sig]...)
	cand = append(cand, s.cx.recent[:]...)
	s.mu.Unlock()
	// One evaluator, reset per candidate, serves the whole probe.
	var ev expr.Evaluator
next:
	for _, m := range cand {
		if m == nil {
			continue
		}
		ev.Reset(m)
		for _, c := range constraints {
			if ev.Eval(c) == 0 {
				continue next
			}
		}
		return m, true
	}
	return nil, false
}

// tryUnsat probes the counterexample index's UNSAT side: if some
// stored UNSAT constraint-ID set is a subset of this query's set, the
// query is UNSAT by monotonicity of conjunction.
func (s *Solver) tryUnsat(constraints []*expr.Expr) bool {
	s.mu.Lock()
	empty := s.cx.unsatN == 0
	s.mu.Unlock()
	if empty || len(constraints) == 0 {
		return false
	}
	ids := make([]uint64, len(constraints))
	for i, c := range constraints {
		ids[i] = c.ID()
		if ids[i] == 0 {
			return false
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		for _, u := range s.cx.unsat[id] {
			if subsetSorted(u, ids) {
				return true
			}
		}
	}
	return false
}

// storeUnsat feeds a deterministically proven UNSAT constraint set
// into the index.
func (s *Solver) storeUnsat(constraints []*expr.Expr) {
	if len(constraints) == 0 || len(constraints) > cxMaxUnsatLen {
		return
	}
	ids := make([]uint64, 0, len(constraints))
	for _, c := range constraints {
		id := c.ID()
		if id == 0 {
			return
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dedup := ids[:1]
	for _, id := range ids[1:] {
		if id != dedup[len(dedup)-1] {
			dedup = append(dedup, id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cx.addUnsat(dedup)
}
