package expr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// builder is the constructor set genExpr draws from: an *Arena, or
// rawBuilder.
type builder interface {
	C(v uint32, w uint8) *Expr
	S(name string, w uint8) *Expr
	Add(a, b *Expr) *Expr
	Sub(a, b *Expr) *Expr
	Mul(a, b *Expr) *Expr
	And(a, b *Expr) *Expr
	Or(a, b *Expr) *Expr
	Xor(a, b *Expr) *Expr
	Shl(a, b *Expr) *Expr
	Lshr(a, b *Expr) *Expr
	Ashr(a, b *Expr) *Expr
	Not(a *Expr) *Expr
	Eq(a, b *Expr) *Expr
	Ult(a, b *Expr) *Expr
	Ite(cond, a, b *Expr) *Expr
	Zext(a *Expr, w uint8) *Expr
	Trunc(a *Expr, w uint8) *Expr
	Concat(hi, lo *Expr) *Expr
}

// rawBuilder builds raw &Expr{} trees: no interning, no constant
// folding, no canonical operand order — the literal meaning of each
// construction, which the arena constructors must preserve.
type rawBuilder struct{}

func raw(k Kind, w uint8, a, b, c *Expr) *Expr { return &Expr{Kind: k, Width: w, A: a, B: b, C: c} }

func (rawBuilder) C(v uint32, w uint8) *Expr    { return &Expr{Kind: KConst, Width: w, Val: v & mask(w)} }
func (rawBuilder) S(name string, w uint8) *Expr { return &Expr{Kind: KSym, Width: w, Name: name} }
func (rawBuilder) Add(a, b *Expr) *Expr         { return raw(KAdd, a.Width, a, b, nil) }
func (rawBuilder) Sub(a, b *Expr) *Expr         { return raw(KSub, a.Width, a, b, nil) }
func (rawBuilder) Mul(a, b *Expr) *Expr         { return raw(KMul, a.Width, a, b, nil) }
func (rawBuilder) And(a, b *Expr) *Expr         { return raw(KAnd, a.Width, a, b, nil) }
func (rawBuilder) Or(a, b *Expr) *Expr          { return raw(KOr, a.Width, a, b, nil) }
func (rawBuilder) Xor(a, b *Expr) *Expr         { return raw(KXor, a.Width, a, b, nil) }
func (rawBuilder) Shl(a, b *Expr) *Expr         { return raw(KShl, a.Width, a, b, nil) }
func (rawBuilder) Lshr(a, b *Expr) *Expr        { return raw(KLshr, a.Width, a, b, nil) }
func (rawBuilder) Ashr(a, b *Expr) *Expr        { return raw(KAshr, a.Width, a, b, nil) }
func (rawBuilder) Not(a *Expr) *Expr            { return raw(KNot, a.Width, a, nil, nil) }
func (rawBuilder) Eq(a, b *Expr) *Expr          { return raw(KEq, 1, a, b, nil) }
func (rawBuilder) Ult(a, b *Expr) *Expr         { return raw(KUlt, 1, a, b, nil) }
func (rawBuilder) Ite(cond, a, b *Expr) *Expr   { return raw(KIte, a.Width, cond, a, b) }
func (rawBuilder) Zext(a *Expr, w uint8) *Expr  { return raw(KZext, w, a, nil, nil) }
func (rawBuilder) Trunc(a *Expr, w uint8) *Expr { return raw(KTrunc, w, a, nil, nil) }
func (rawBuilder) Concat(hi, lo *Expr) *Expr    { return raw(KConcat, hi.Width+lo.Width, hi, lo, nil) }

// genExpr builds one random expression through the public
// constructors, drawing from every kind the engine produces.
func genExpr(r *rand.Rand, depth int, w uint8, vars []string) *Expr {
	return genWith(Default(), r, depth, w, vars)
}

// genWith is genExpr over any builder: the same seed draws the same
// construction sequence whichever builder carries it out.
func genWith(b builder, r *rand.Rand, depth int, w uint8, vars []string) *Expr {
	gen := func(w uint8) *Expr { return genWith(b, r, depth-1, w, vars) }
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			return b.C(uint32(r.Int63())&Mask(w), w)
		}
		return b.S(vars[r.Intn(len(vars))], w)
	}
	switch r.Intn(14) {
	case 0:
		return b.Add(gen(w), gen(w))
	case 1:
		return b.Sub(gen(w), gen(w))
	case 2:
		return b.Mul(gen(w), gen(w))
	case 3:
		return b.And(gen(w), gen(w))
	case 4:
		return b.Or(gen(w), gen(w))
	case 5:
		return b.Xor(gen(w), gen(w))
	case 6:
		return b.Shl(gen(w), gen(w))
	case 7:
		return b.Lshr(gen(w), gen(w))
	case 8:
		return b.Ashr(gen(w), gen(w))
	case 9:
		return b.Not(gen(w))
	case 10:
		cond := b.Eq(gen(w), gen(w))
		return b.Ite(cond, gen(w), gen(w))
	case 11:
		if w > 8 {
			return b.Zext(gen(8), w)
		}
		return b.Trunc(gen(32), w)
	case 12:
		if w == 16 {
			return b.Concat(gen(8), gen(8))
		}
		return b.Xor(gen(w), gen(w))
	default:
		c := b.Ult(gen(w), gen(w))
		return b.Ite(c, gen(w), gen(w))
	}
}

// TestInternCanonical is the hash-consing property test: building the
// same random expression twice (identical construction sequences)
// must yield pointer-identical nodes, and their IDs must match.
func TestInternCanonical(t *testing.T) {
	vars := []string{"p", "q", "r"}
	for _, w := range []uint8{8, 16, 32} {
		for trial := 0; trial < 300; trial++ {
			seed := int64(w)*1000 + int64(trial)
			a := genExpr(rand.New(rand.NewSource(seed)), 4, w, vars)
			b := genExpr(rand.New(rand.NewSource(seed)), 4, w, vars)
			if a != b {
				t.Fatalf("width %d trial %d: structurally equal builds not pointer-identical:\n%s\n%s", w, trial, a, b)
			}
			if a.ID() == 0 || a.ID() != b.ID() {
				t.Fatalf("IDs diverge: %d vs %d", a.ID(), b.ID())
			}
			if !Equal(a, b) {
				t.Fatal("Equal disagrees with interning")
			}
		}
	}
}

// TestInternPreservesSemantics builds each random expression twice
// from the same draws: through the arena constructors, which intern,
// fold constants and order operands canonically, and as a raw
// &Expr{} tree that does none of that. Evaluation under random
// environments must agree: the arena may never change what an
// expression means.
func TestInternPreservesSemantics(t *testing.T) {
	vars := []string{"p", "q", "r"}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		seed := int64(trial) + 5000
		interned := genExpr(rand.New(rand.NewSource(seed)), 4, 32, vars)
		plain := genWith(rawBuilder{}, rand.New(rand.NewSource(seed)), 4, 32, vars)
		for i := 0; i < 8; i++ {
			env := map[string]uint32{}
			for _, v := range vars {
				env[v] = uint32(r.Int63())
			}
			if got, want := Eval(interned, env), Eval(plain, env); got != want {
				t.Fatalf("trial %d: interned %#x raw %#x under %v\n%s\n%s", trial, got, want, env, interned, plain)
			}
		}
	}
}

// TestCommutativeCanonicalization checks the operand-ordering rule:
// both orders of a commutative application intern to one node.
func TestCommutativeCanonicalization(t *testing.T) {
	x, y := S("x", 32), S("y", 32)
	for name, pair := range map[string][2]*Expr{
		"add": {Add(x, y), Add(y, x)},
		"mul": {Mul(x, y), Mul(y, x)},
		"and": {And(x, y), And(y, x)},
		"or":  {Or(x, y), Or(y, x)},
		"xor": {Xor(x, y), Xor(y, x)},
		"eq":  {Eq(x, y), Eq(y, x)},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: operand orders produced distinct nodes", name)
		}
	}
	// Non-commutative operators must not be reordered.
	if Equal(Sub(x, y), Sub(y, x)) {
		t.Error("sub wrongly canonicalized as commutative")
	}
	if Equal(Ult(x, y), Ult(y, x)) {
		t.Error("ult wrongly canonicalized as commutative")
	}
}

// TestInternConcurrent hammers the shard table from many goroutines
// building overlapping expression sets; every goroutine must observe
// the same canonical nodes. Run under -race this is the lock-striping
// regression test.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 8
	results := make([][]*Expr, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*Expr, 0, 200)
			for i := 0; i < 200; i++ {
				x := S(fmt.Sprintf("cc%d", i%17), 16)
				e := Add(Mul(x, C(uint32(i%13)+2, 16)), C(uint32(i%7), 16))
				out = append(out, Eq(e, C(uint32(i%11), 16)))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d produced non-canonical node at %d", g, i)
			}
		}
	}
}

// TestIDStability pins the ID contract: nonzero, stable across
// lookups, and distinct for structurally distinct nodes.
func TestIDStability(t *testing.T) {
	a := Add(S("ida", 32), C(1, 32))
	if a.ID() == 0 {
		t.Fatal("constructed node has zero ID")
	}
	if b := Add(S("ida", 32), C(1, 32)); b.ID() != a.ID() {
		t.Fatal("re-built node changed ID")
	}
	if c := Add(S("ida", 32), C(2, 32)); c.ID() == a.ID() {
		t.Fatal("distinct structures share an ID")
	}
	if n := InternedNodes(); n == 0 {
		t.Error("intern table reports empty")
	}
}

// --- interning ablation benchmarks -------------------------------------

// buildWorkload constructs the kind of expression chains symbolic
// execution of a polling loop produces: repeated arithmetic over a few
// hardware symbols, heavily re-built from the same sub-structures.
func buildWorkload(n int) *Expr {
	x := S("bw_x", 32)
	y := S("bw_y", 32)
	acc := C(0, 32)
	for i := 0; i < n; i++ {
		step := And(Add(x, C(uint32(i%8), 32)), Xor(y, C(0xFF, 32)))
		acc = Add(acc, Mul(step, step))
	}
	return acc
}

// BenchmarkInternOn measures canonical construction (the production
// configuration): repeated structures come back as table hits.
func BenchmarkInternOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if buildWorkload(64) == nil {
			b.Fatal("nil")
		}
	}
}

// BenchmarkStructuralEquality measures the O(1) equality claim: two
// canonical deep DAGs compare by pointer.
func BenchmarkStructuralEquality(b *testing.B) {
	x := buildWorkload(256)
	y := buildWorkload(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equal(x, y) {
			b.Fatal("workloads differ")
		}
	}
}
