package expr

import (
	"math/rand"
	"slices"
	"testing"
)

// genPair builds a random expression twice: once as raw nodes with no
// simplification (ground truth) and once through the public
// constructors (which canonicalize). Both must evaluate identically
// under every assignment.
func genPair(r *rand.Rand, depth int, w uint8, vars []string) (raw, built *Expr) {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			v := uint32(r.Int63()) & Mask(w)
			// Bias toward identity-triggering constants.
			switch r.Intn(4) {
			case 0:
				v = 0
			case 1:
				v = 1
			case 2:
				v = Mask(w)
			}
			return C(v, w), C(v, w)
		}
		name := vars[r.Intn(len(vars))]
		return S(name, w), S(name, w)
	}
	kinds := []Kind{KAdd, KSub, KMul, KAnd, KOr, KXor, KShl, KLshr, KAshr}
	k := kinds[r.Intn(len(kinds))]
	ra, ba := genPair(r, depth-1, w, vars)
	rb, bb := genPair(r, depth-1, w, vars)
	raw = &Expr{Kind: k, Width: w, A: ra, B: rb}
	switch k {
	case KAdd:
		built = Add(ba, bb)
	case KSub:
		built = Sub(ba, bb)
	case KMul:
		built = Mul(ba, bb)
	case KAnd:
		built = And(ba, bb)
	case KOr:
		built = Or(ba, bb)
	case KXor:
		built = Xor(ba, bb)
	case KShl:
		built = Shl(ba, bb)
	case KLshr:
		built = Lshr(ba, bb)
	case KAshr:
		built = Ashr(ba, bb)
	}
	return raw, built
}

func TestSimplifierPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vars := []string{"a", "b", "c"}
	for _, w := range []uint8{8, 16, 32} {
		for trial := 0; trial < 400; trial++ {
			raw, built := genPair(r, 4, w, vars)
			for e := 0; e < 8; e++ {
				env := map[string]uint32{}
				for _, v := range vars {
					env[v] = uint32(r.Int63())
				}
				got, want := Eval(built, env), Eval(raw, env)
				if got != want {
					t.Fatalf("width %d: %s simplified to %s: eval %#x want %#x (env %v)",
						w, raw, built, got, want, env)
				}
			}
		}
	}
}

func TestComparisonSemantics(t *testing.T) {
	a, b := S("a", 8), S("b", 8)
	cases := []struct {
		e    *Expr
		f    func(x, y uint32) bool
		name string
	}{
		{Eq(a, b), func(x, y uint32) bool { return x == y }, "eq"},
		{Ult(a, b), func(x, y uint32) bool { return x < y }, "ult"},
		{Slt(a, b), func(x, y uint32) bool { return int8(x) < int8(y) }, "slt"},
	}
	for _, tc := range cases {
		for x := uint32(0); x < 256; x += 17 {
			for y := uint32(0); y < 256; y += 13 {
				env := map[string]uint32{"a": x, "b": y}
				got := Eval(tc.e, env) != 0
				if got != tc.f(x, y) {
					t.Fatalf("%s(%d,%d) = %v, want %v", tc.name, x, y, got, tc.f(x, y))
				}
			}
		}
	}
}

func TestIdentities(t *testing.T) {
	x := S("x", 32)
	if got := Add(x, C(0, 32)); got != x {
		t.Errorf("x+0 != x: %s", got)
	}
	if got := And(x, C(0xFFFFFFFF, 32)); got != x {
		t.Errorf("x&~0 != x: %s", got)
	}
	if !Xor(x, x).IsFalse() {
		t.Error("x^x != 0")
	}
	if !Sub(x, x).IsFalse() {
		t.Error("x-x != 0")
	}
	if got := Mul(x, C(1, 32)); got != x {
		t.Errorf("x*1 != x: %s", got)
	}
	if !Mul(x, C(0, 32)).IsFalse() {
		t.Error("x*0 != 0")
	}
	if !Eq(x, x).IsTrue() {
		t.Error("x==x not true")
	}
	if !Ult(x, C(0, 32)).IsFalse() {
		t.Error("x <u 0 not false")
	}
	// Re-association: (x+3)+5 folds to x+8.
	e := Add(Add(x, C(3, 32)), C(5, 32))
	if e.Kind != KAdd || e.A != x {
		t.Fatalf("reassociation failed: %s", e)
	}
	if v, _ := e.B.IsConst(); v != 8 {
		t.Errorf("reassociation constant = %s", e.B)
	}
	// Sub by constant becomes add of negation and folds.
	e = Sub(Add(x, C(10, 32)), C(4, 32))
	if v, ok := e.B.IsConst(); !ok || v != 6 {
		t.Errorf("x+10-4 = %s, want x+6", e)
	}
	if got := Not(Not(x)); got != x {
		t.Errorf("~~x != x: %s", got)
	}
}

func TestWidthConversions(t *testing.T) {
	x := S("x", 8)
	z := Zext(x, 32)
	if z.Width != 32 {
		t.Fatal("zext width")
	}
	if got := Trunc(z, 8); got != x {
		t.Errorf("trunc(zext(x)) != x: %s", got)
	}
	if Zext(Zext(x, 16), 32).A != x {
		t.Error("nested zext not collapsed")
	}
	env := map[string]uint32{"x": 0xAB}
	if Eval(z, env) != 0xAB {
		t.Error("zext eval")
	}
	c := Concat(C(0x12, 8), C(0x34, 8))
	if v, ok := c.IsConst(); !ok || v != 0x1234 {
		t.Errorf("concat consts = %s", c)
	}
	if Eval(Concat(S("h", 8), S("l", 8)), map[string]uint32{"h": 0xAA, "l": 0x55}) != 0xAA55 {
		t.Error("concat eval")
	}
}

func TestByteReassembly(t *testing.T) {
	x := S("x", 32)
	var bytes [4]*Expr
	for i := range bytes {
		bytes[i] = ExtractByte(x, i)
		if bytes[i].Width != 8 {
			t.Fatalf("byte %d width %d", i, bytes[i].Width)
		}
	}
	if got := FromBytes32(bytes[0], bytes[1], bytes[2], bytes[3]); got != x {
		t.Errorf("byte reassembly of x = %s, want x", got)
	}
	// Shuffled bytes must NOT reassemble to x.
	got := FromBytes32(bytes[1], bytes[0], bytes[2], bytes[3])
	if got == x {
		t.Error("shuffled bytes wrongly reassembled")
	}
	env := map[string]uint32{"x": 0xDEADBEEF}
	if Eval(got, env) != 0xDEADEFBE {
		t.Errorf("shuffled eval = %#x", Eval(got, env))
	}
	// Constant extraction.
	if v, _ := ExtractByte(C(0x11223344, 32), 2).IsConst(); v != 0x22 {
		t.Error("const byte extract")
	}
}

func TestIte(t *testing.T) {
	c := S("c", 1)
	a, b := C(10, 32), C(20, 32)
	e := Ite(c, a, b)
	if Eval(e, map[string]uint32{"c": 1}) != 10 || Eval(e, map[string]uint32{"c": 0}) != 20 {
		t.Error("ite eval")
	}
	if Ite(Bool(true), a, b) != a || Ite(Bool(false), a, b) != b {
		t.Error("constant ite not folded")
	}
	if Ite(c, a, a) != a {
		t.Error("same-arm ite not folded")
	}
}

func TestVarsAndString(t *testing.T) {
	e := Add(Mul(S("b", 32), S("a", 32)), Zext(S("c", 8), 32))
	names := symNames(e.Syms())
	if len(names) != 3 || names[0] != "a:32" || names[2] != "c:8" {
		t.Errorf("Syms names = %v", names)
	}
	if e.String() == "" || e.Size() < 5 {
		t.Error("String/Size degenerate")
	}
}

func TestEvalMasksToWidth(t *testing.T) {
	// A width-8 symbol with an oversized env value must be masked.
	if Eval(S("x", 8), map[string]uint32{"x": 0x1FF}) != 0xFF {
		t.Error("sym eval not masked")
	}
	if Eval(Add(S("x", 8), C(1, 8)), map[string]uint32{"x": 0xFF}) != 0 {
		t.Error("width-8 add did not wrap")
	}
}

func TestVarSetUnion(t *testing.T) {
	x := S("x", 8)
	y := S("y", 16)
	a := Add(x, C(1, 8))
	b := Eq(Zext(x, 16), y)
	set := SymsOf([]*Expr{a, b, C(3, 8)})
	if len(set) != 2 || !slices.Contains(set, x) || !slices.Contains(set, y) {
		t.Fatalf("SymsOf = %v, want x:8 y:16", set)
	}
	if len(SymsOf(nil)) != 0 {
		t.Fatal("empty SymsOf must be empty")
	}
}
