package expr

import (
	"cmp"
	"slices"
)

// This file gives every node its symbols: the distinct KSym nodes the
// expression mentions, sorted by their dense per-arena index. The
// solver's constraint slicing runs over those indices as a bitset,
// and a query's model binds the names of the union of its
// constraints' lists, so neither walks an expression.
//
// Storage stays linear in the number of nodes. A node with at most
// maxEagerSyms symbols gets its list at intern time, and shares a
// child's list whenever that list already holds every symbol (unary
// nodes, operations with a constant, x op f(x)). A node with more
// symbols computes its list on the first Syms call, with one walk that
// stops at nodes whose lists are known, and memoizes it. An N-symbol
// Add chain therefore stores O(N) list entries when it is built, not
// the O(N²) a merged list on every node would take; only the nodes the
// solver asks about (constraints and branch conditions) pay for a
// long list.
//
// Index order follows creation order, which differs between runs that
// intern from several goroutines, so it may only decide set
// membership: callers must not derive any output order from it. The
// indices of one arena are dense; symbols of different arenas may
// share an index, so index-based sets hold symbols of one arena.

// maxEagerSyms bounds the list a node stores at intern time.
const maxEagerSyms = 16

// noSyms is the list of every node without symbols.
var noSyms = &[]*Expr{}

// SymIndex returns a KSym node's index in its arena: the arena's
// symbols are numbered densely from 0 in the order they are first
// interned. It is 0 for every other node.
func (e *Expr) SymIndex() int { return int(e.sym) }

// Syms returns the distinct symbol nodes e mentions, sorted by
// SymIndex. The list is shared with the node: callers must not modify
// it.
func (e *Expr) Syms() []*Expr {
	if p := e.syms.Load(); p != nil {
		return *p
	}
	var out []*Expr
	collectSyms(e, &out, map[*Expr]bool{})
	slices.SortStableFunc(out, symCmp)
	e.syms.Store(&out)
	return out
}

// SymsOf returns the union of the symbols of es, sorted by SymIndex.
// With one expression it returns that expression's shared list.
func SymsOf(es []*Expr) []*Expr {
	if len(es) == 1 {
		return es[0].Syms()
	}
	var out []*Expr
	for _, e := range es {
		out = append(out, e.Syms()...)
	}
	slices.SortFunc(out, symCmp)
	return slices.Compact(out)
}

// symCmp orders symbols by index; the process-unique ID breaks the
// ties between symbols of different arenas, so equal nodes end up
// adjacent.
func symCmp(x, y *Expr) int {
	if c := cmp.Compare(x.sym, y.sym); c != 0 {
		return c
	}
	return cmp.Compare(x.id, y.id)
}

// initSyms sets the symbol list of a node being interned, whose
// children are interned already, unless it has more than maxEagerSyms
// symbols: that list is left to Syms.
func (e *Expr) initSyms() {
	switch e.Kind {
	case KConst:
		e.syms.Store(noSyms)
	case KSym:
		e.syms.Store(&[]*Expr{e})
	default:
		list := noSyms
		for _, c := range [...]*Expr{e.A, e.B, e.C} {
			if c == nil {
				continue
			}
			cl := c.syms.Load()
			if cl == nil {
				return
			}
			if list = unionSyms(list, cl); list == nil {
				return
			}
		}
		e.syms.Store(list)
	}
}

// unionSyms returns the union of two sorted symbol lists of at most
// maxEagerSyms symbols each: a or b itself when one holds the other,
// else a new list; nil when the union has more than maxEagerSyms.
func unionSyms(pa, pb *[]*Expr) *[]*Expr {
	a, b := *pa, *pb
	var buf [2 * maxEagerSyms]*Expr
	out := buf[:0]
	for len(a) > 0 && len(b) > 0 {
		switch c := symCmp(a[0], b[0]); {
		case c < 0:
			out, a = append(out, a[0]), a[1:]
		case c > 0:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	out = append(append(out, a...), b...)
	switch {
	case len(out) > maxEagerSyms:
		return nil
	case len(out) == len(*pa):
		return pa
	case len(out) == len(*pb):
		return pb
	}
	list := slices.Clone(out)
	return &list
}

// collectSyms appends the symbols of e that out lacks, walking the
// DAG once and stopping at nodes whose lists are known. seen marks the
// nodes visited and the symbols appended.
func collectSyms(e *Expr, out *[]*Expr, seen map[*Expr]bool) {
	if seen[e] {
		return
	}
	seen[e] = true
	if e.Kind == KSym {
		*out = append(*out, e)
		return
	}
	p := e.syms.Load()
	if p == nil {
		for _, c := range [...]*Expr{e.A, e.B, e.C} {
			if c != nil {
				collectSyms(c, out, seen)
			}
		}
		return
	}
	for _, s := range *p {
		if !seen[s] {
			seen[s] = true
			*out = append(*out, s)
		}
	}
}
