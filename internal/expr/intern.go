package expr

import (
	"sync"
	"sync/atomic"
)

// This file implements hash-consing: every constructor funnels its
// result through an Arena's intern table, which returns one canonical
// node per expression structure. Canonical nodes carry a stable
// nonzero ID, so structural equality of interned expressions is
// pointer (or ID) equality, and downstream memo tables (evaluation,
// bit-blasting, solver caches) key on the ID instead of re-walking
// trees. Every node also carries its symbols (syms.go), so the solver
// slices and binds models without a walk.
//
// Interning used to go through one process-global table, which never
// evicts: fine for a CLI run, fatal for a long-lived service whose
// jobs each mint millions of nodes. An Arena is an isolated intern
// table — a job builds all its expressions in its own arena and the
// whole table becomes garbage when the job's last reference dies, so
// reclamation happens wholesale by construction. The process-global
// default arena still backs the package-level constructors, keeping
// every existing caller (the CLIs, the tests) unchanged.
//
// Each arena is sharded: a shard is an independently mutex-guarded
// map, so concurrent exploration workers interning expressions contend
// only when they hash into the same shard. Nodes are immutable and
// fully initialized (including the structural hash) before they are
// published through a shard map, which is why reading a node needs no
// atomics. The one field filled later, the symbol list of a node with
// many symbols, is published through an atomic pointer.

// internShards is the lock-striping width of an arena's table. Sixty
// four shards keeps cross-worker contention negligible at the worker
// counts the engine uses (≤ GOMAXPROCS).
const internShards = 64

// internKey identifies an expression structure. Children are compared
// by pointer: constructors intern bottom-up, so structurally equal
// children are already pointer-identical by the time a parent is
// interned — provided parent and children come from one arena (plus
// the shared small-constant pool, which is canonical everywhere).
type internKey struct {
	kind    Kind
	width   uint8
	val     uint32
	name    string
	a, b, c *Expr
}

type internShard struct {
	mu sync.Mutex
	m  map[internKey]*Expr
}

// Arena is an isolated hash-consing table. Expressions built through
// one arena's constructor methods are canonical within that arena:
// structurally equal constructions return the same pointer (and ID).
// Expressions from different arenas never alias (except the shared
// small-constant pool), so dropping every reference to an arena
// reclaims all its nodes at once.
//
// An Arena is safe for concurrent use. The zero value is not usable;
// call NewArena, or use the package-level constructors, which build in
// the process-global default arena.
type Arena struct {
	shards [internShards]internShard
	// nsyms numbers the arena's symbols densely (Expr.SymIndex).
	nsyms atomic.Uint32
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	a := &Arena{}
	for i := range a.shards {
		a.shards[i].m = map[internKey]*Expr{}
	}
	return a
}

var (
	// defaultArena backs the package-level constructors; it is the
	// old process-global intern table.
	defaultArena = NewArena()
	// nextID is shared by every arena so IDs are process-unique:
	// ID-keyed memo tables stay correct even where arena nodes mix
	// with the shared small constants.
	nextID atomic.Uint64
)

// Default returns the process-global arena the package-level
// constructors build in.
func Default() *Arena { return defaultArena }

// smallConsts short-circuits the tables for the constants the engine
// mints constantly (immediates, masks, byte values): a lock-free
// lookup instead of a shard round-trip. The pool is shared by every
// arena — the nodes are immutable, permanently live, and canonical
// process-wide, so cross-arena sharing of them is safe.
var smallConsts [33][256]*Expr

func init() {
	for w := 1; w <= 32; w++ {
		for v := 0; v < 256; v++ {
			if uint32(v) != uint32(v)&mask(uint8(w)) {
				continue // not representable at this width
			}
			k := internKey{kind: KConst, width: uint8(w), val: uint32(v)}
			smallConsts[w][v] = defaultArena.materialize(k, hashKey(k))
		}
	}
}

// intern returns the canonical node for the given structure,
// allocating (and assigning a fresh ID) only when the structure is new
// to the arena. Children must already be interned; table hits cost a
// hash and one shard lookup, no allocation.
func (ar *Arena) intern(k internKey) *Expr {
	h := hashKey(k)
	sh := &ar.shards[h%internShards]
	sh.mu.Lock()
	if ex, ok := sh.m[k]; ok {
		sh.mu.Unlock()
		return ex
	}
	n := ar.materialize(k, h)
	sh.m[k] = n
	sh.mu.Unlock()
	return n
}

// materialize builds the node for a structure outside any table: a
// new symbol takes the arena's next symbol index, and every node gets
// its eager symbol list when it has one.
func (ar *Arena) materialize(k internKey, h uint64) *Expr {
	n := &Expr{
		Kind: k.kind, Width: k.width, Val: k.val, Name: k.name,
		A: k.a, B: k.b, C: k.c,
		id: nextID.Add(1), hash: h,
	}
	if k.kind == KSym {
		n.sym = ar.nsyms.Add(1) - 1
	}
	n.initSyms()
	return n
}

// InternedNodes reports how many canonical nodes the arena holds; a
// memory metric for tests, benchmarks and the job service.
func (ar *Arena) InternedNodes() int {
	n := 0
	for i := range ar.shards {
		ar.shards[i].mu.Lock()
		n += len(ar.shards[i].m)
		ar.shards[i].mu.Unlock()
	}
	return n
}

// InternedNodes reports how many canonical nodes the default arena
// holds.
func InternedNodes() int { return defaultArena.InternedNodes() }

// hashKey is the structural FNV-style hash stored on every node at
// intern time. Children contribute their own stored hashes, so the
// computation is O(1) per node.
func hashKey(k internKey) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(k.kind) + 1)
	mix(uint64(k.width))
	mix(uint64(k.val) + 0x9E3779B97F4A7C15)
	for i := 0; i < len(k.name); i++ {
		mix(uint64(k.name[i]))
	}
	if k.a != nil {
		mix(k.a.Hash())
	}
	if k.b != nil {
		mix(k.b.Hash() ^ 0xABCDEF)
	}
	if k.c != nil {
		mix(k.c.Hash() ^ 0x123457)
	}
	if h == 0 {
		h = 1
	}
	return h
}

// computeHash hashes a node in place; used by Hash for raw
// (un-interned) nodes, which recurse through their children lazily.
func computeHash(e *Expr) uint64 {
	return hashKey(internKey{kind: e.Kind, width: e.Width, val: e.Val, name: e.Name, a: e.A, b: e.B, c: e.C})
}
