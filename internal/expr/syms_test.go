package expr

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
)

// symNames returns the names of a symbol list, sorted. A name used
// at two widths is two symbols, so each name carries its width.
func symNames(syms []*Expr) []string {
	names := make([]string, len(syms))
	for i, s := range syms {
		names[i] = s.String()
	}
	sort.Strings(names)
	return names
}

// refSymNames is the reference the symbol lists are checked against:
// a plain walk collecting the distinct names (with widths).
func refSymNames(es ...*Expr) []string {
	set := map[string]bool{}
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if e == nil {
			return
		}
		if e.Kind == KSym {
			set[e.String()] = true
		}
		walk(e.A)
		walk(e.B)
		walk(e.C)
	}
	for _, e := range es {
		walk(e)
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkSymList checks that a list is strictly sorted by index, so it
// holds each symbol once.
func checkSymList(t *testing.T, what string, syms []*Expr) {
	t.Helper()
	for i, s := range syms {
		if s.Kind != KSym {
			t.Fatalf("%s: non-symbol %s in list", what, s)
		}
		if i > 0 && syms[i-1].SymIndex() >= s.SymIndex() {
			t.Fatalf("%s: list not strictly sorted by index at %d: %v", what, i, syms)
		}
	}
}

// TestSymsMatchWalk builds random DAGs in one arena, over enough
// names that some nodes exceed the eager bound, and checks every
// node's list, and the union of a few, against a plain walk. The same
// draws as raw trees (no interning, so no eager lists) must give the
// same names.
func TestSymsMatchWalk(t *testing.T) {
	ar := NewArena()
	vars := make([]string, 40)
	for i := range vars {
		vars[i] = fmt.Sprintf("sm%d", i)
	}
	r := rand.New(rand.NewSource(11))
	var lazy int
	for trial := 0; trial < 300; trial++ {
		seed := int64(trial) + 700
		var es []*Expr
		for k := 0; k < 4; k++ {
			e := genWith(ar, rand.New(rand.NewSource(seed+int64(k)*10000)), 6, 32, vars)
			if e.syms.Load() == nil {
				lazy++
			}
			es = append(es, e, ar.Ite(ar.Ult(e, ar.C(uint32(r.Intn(99)), 32)), e, ar.S(vars[r.Intn(len(vars))], 32)))
		}
		for i, e := range es {
			got := e.Syms()
			checkSymList(t, e.String(), got)
			if names, want := symNames(got), refSymNames(e); !slices.Equal(names, want) {
				t.Fatalf("trial %d expr %d: Syms %v, walk %v", trial, i, names, want)
			}
			if again := e.Syms(); len(again) > 0 && &again[0] != &got[0] {
				t.Fatalf("trial %d: Syms not memoized", trial)
			}
		}
		union := SymsOf(es)
		checkSymList(t, "union", union)
		if names, want := symNames(union), refSymNames(es...); !slices.Equal(names, want) {
			t.Fatalf("trial %d: SymsOf %v, walk %v", trial, names, want)
		}
		// A raw tree makes a new node for every occurrence of a name.
		plain := genWith(rawBuilder{}, rand.New(rand.NewSource(seed)), 6, 32, vars)
		if got, want := slices.Compact(symNames(plain.Syms())), refSymNames(plain); !slices.Equal(got, want) {
			t.Fatalf("trial %d: raw Syms %v, walk %v", trial, got, want)
		}
	}
	if lazy == 0 {
		t.Fatal("no expression exceeded the eager bound; the lazy path went untested")
	}
	if got := SymsOf([]*Expr{ar.C(7, 8), ar.Eq(ar.C(9, 32), ar.C(9, 32))}); len(got) != 0 {
		t.Fatalf("constants mention symbols: %v", got)
	}
}

// TestSymsDenseIndex checks that an arena numbers its symbols densely
// from 0, once per symbol, and independently of other arenas.
func TestSymsDenseIndex(t *testing.T) {
	ar := NewArena()
	for i := 0; i < 5; i++ {
		s := ar.S(fmt.Sprintf("dx%d", i), 8)
		if s.SymIndex() != i {
			t.Fatalf("symbol %d has index %d", i, s.SymIndex())
		}
		if ar.S(fmt.Sprintf("dx%d", i), 8).SymIndex() != i {
			t.Fatal("re-interning a symbol changed its index")
		}
	}
	if got := NewArena().S("dx4", 8).SymIndex(); got != 0 {
		t.Fatalf("a new arena's first symbol has index %d", got)
	}
}

// TestSymsInternConcurrent has two goroutines intern overlapping
// symbols and expressions over them into one arena: both must see the
// same nodes with the same lists, and the arena's indices must stay
// dense and distinct.
func TestSymsInternConcurrent(t *testing.T) {
	ar := NewArena()
	const n = 300
	results := [2][]*Expr{}
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*Expr, 0, n)
			for i := 0; i < n; i++ {
				// The goroutines walk the names in opposite orders,
				// so each interns some symbols first.
				j := i
				if g == 1 {
					j = n - 1 - i
				}
				x := ar.S(fmt.Sprintf("ci%d", j%37), 16)
				y := ar.S(fmt.Sprintf("ci%d", (j*7)%37), 16)
				out = append(out, ar.Eq(ar.Add(x, ar.Mul(y, ar.C(uint32(j%5)+2, 16))), ar.C(uint32(j), 16)))
			}
			if g == 1 {
				slices.Reverse(out)
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	seen := map[int]*Expr{}
	for i := range results[0] {
		a, b := results[0][i], results[1][i]
		if a != b {
			t.Fatalf("goroutines interned different nodes at %d", i)
		}
		sa := a.Syms()
		checkSymList(t, a.String(), sa)
		if names, want := symNames(sa), refSymNames(a); !slices.Equal(names, want) {
			t.Fatalf("expr %d: Syms %v, walk %v", i, names, want)
		}
		for _, s := range sa {
			if prev, ok := seen[s.SymIndex()]; ok && prev != s {
				t.Fatalf("index %d names both %s and %s", s.SymIndex(), prev, s)
			}
			seen[s.SymIndex()] = s
		}
	}
	for i := 0; i < len(seen); i++ {
		if seen[i] == nil {
			t.Fatalf("indices not dense: %d of %d missing", i, len(seen))
		}
	}
}

// TestSymsInternChainLinear builds an N-symbol Add chain. Merging the
// children's lists on every node would store N²/2 entries (~64 MB at
// N = 4,096); the bounded eager lists and shared child lists must keep
// the storage linear, and the top's list must still hold every symbol.
func TestSymsInternChainLinear(t *testing.T) {
	const n = 4096
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("ch%d", i)
	}
	ar := NewArena()
	nodes := make([]*Expr, 0, 2*n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	acc := ar.S(names[0], 32)
	for _, name := range names[1:] {
		s := ar.S(name, 32)
		acc = ar.Add(acc, s)
		nodes = append(nodes, s, acc)
	}
	runtime.ReadMemStats(&after)
	if perNode := (after.TotalAlloc - before.TotalAlloc) / n; perNode > 2048 {
		t.Errorf("building the chain allocated %d bytes per symbol, want <= 2048", perNode)
	}
	entries, lists := 0, map[**Expr]bool{}
	for _, e := range nodes {
		if p := e.syms.Load(); p != nil && len(*p) > 0 && !lists[&(*p)[0]] {
			lists[&(*p)[0]] = true
			entries += len(*p)
		}
	}
	if entries > 2*n+maxEagerSyms*maxEagerSyms {
		t.Errorf("chain stores %d list entries for %d symbols", entries, n)
	}
	if got := len(acc.Syms()); got != n {
		t.Fatalf("chain top lists %d symbols, want %d", got, n)
	}
	checkSymList(t, "chain top", acc.Syms())
}
