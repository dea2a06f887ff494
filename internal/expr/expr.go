// Package expr implements the symbolic bitvector expressions that flow
// through RevNIC's symbolic execution engine.
//
// Expressions form an immutable, hash-consed DAG. Constructors perform
// local canonicalization (constant folding, algebraic identities,
// commutative operand ordering), which keeps path constraints small
// before they ever reach the solver — the same role KLEE's expression
// rewriter plays in the original system — and then intern the node in
// a sharded hash-consing table (an Arena, intern.go), so every
// constructor returns the one canonical node per structure within its
// arena. The package-level constructors build in a process-global
// default arena; long-lived services give each job its own Arena so a
// finished job's expressions are reclaimed wholesale. Structural
// equality of same-arena constructed expressions is pointer equality
// (or equality of the stable ID every canonical node carries), and the
// evaluation and bit-blasting memos and the solver's answer cache key
// on those IDs. Every node also carries its symbols (Syms, syms.go):
// each symbol has a dense index in its arena, and a node's list of the
// symbols it mentions, sorted by that index, is set when the node is
// interned (or, past a bound, memoized on first use), which is what
// the solver slices and binds models with. Widths are in bits, 1..32;
// width-1 expressions are booleans produced by comparisons and
// consumed by Ite and path constraints.
package expr

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind discriminates expression nodes.
type Kind uint8

// Expression kinds.
const (
	KConst Kind = iota
	KSym
	KAdd
	KSub
	KMul
	KAnd
	KOr
	KXor
	KShl  // logical shift left
	KLshr // logical shift right
	KAshr // arithmetic shift right
	KEq   // boolean result
	KUlt  // unsigned less-than, boolean result
	KSlt  // signed less-than, boolean result
	KNot  // bitwise complement (logical not at width 1)
	KZext // zero-extend A to Width
	KTrunc
	KConcat // A is high bits, B is low bits
	KIte    // if A (width 1) then B else C
)

var kindNames = map[Kind]string{
	KConst: "const", KSym: "sym", KAdd: "add", KSub: "sub", KMul: "mul",
	KAnd: "and", KOr: "or", KXor: "xor", KShl: "shl", KLshr: "lshr",
	KAshr: "ashr", KEq: "eq", KUlt: "ult", KSlt: "slt", KNot: "not",
	KZext: "zext", KTrunc: "trunc", KConcat: "concat", KIte: "ite",
}

// Expr is one immutable node of an expression DAG. Construct values
// only through the package constructors, which establish invariants
// (masked constants, folded identities, canonical interning).
type Expr struct {
	Kind  Kind
	Width uint8 // result width in bits, 1..32
	Val   uint32
	Name  string
	A     *Expr
	B     *Expr
	C     *Expr

	// id is the stable identity assigned at intern time; nonzero for
	// every constructor-built node, 0 only for raw nodes built inside
	// this package's tests. Interned nodes with equal structure share
	// one id (and one pointer).
	id uint64
	// hash is the structural hash, filled in before the node is
	// published by intern; raw test nodes compute it lazily.
	hash uint64
	// syms points to the node's symbol list (Syms) once it is known:
	// from intern time for a node with at most maxEagerSyms symbols,
	// from the first Syms call for the others and for raw test nodes.
	syms atomic.Pointer[[]*Expr]
	// sym is a KSym node's dense index in its arena: symbols are
	// numbered 0, 1, 2, ... in the order the arena first interns them.
	sym uint32
}

// ID returns the node's stable interned identity. Structurally equal
// constructor-built expressions have the same ID, so memo tables and
// cache keys throughout the solver stack use it in place of tree
// walks. 0 is never returned for constructor-built nodes.
func (e *Expr) ID() uint64 { return e.id }

// Equal reports structural equality. For interned nodes (everything
// built through the constructors) this is a pointer comparison; the
// slow path exists for raw nodes used in this package's own tests.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Hash() != b.Hash() {
		return false
	}
	if a.Kind != b.Kind || a.Width != b.Width || a.Val != b.Val || a.Name != b.Name {
		return false
	}
	return Equal(a.A, b.A) && Equal(a.B, b.B) && Equal(a.C, b.C)
}

func mask(w uint8) uint32 {
	if w >= 32 {
		return 0xFFFFFFFF
	}
	return 1<<w - 1
}

// Mask returns the value mask for width w.
func Mask(w uint8) uint32 { return mask(w) }

// C constructs a constant of width w in the default arena.
func C(v uint32, w uint8) *Expr { return defaultArena.C(v, w) }

// C constructs a constant of width w.
func (ar *Arena) C(v uint32, w uint8) *Expr {
	v &= mask(w)
	if v < 256 && w <= 32 {
		if c := smallConsts[w][v]; c != nil {
			return c
		}
	}
	return ar.intern(internKey{kind: KConst, width: w, val: v})
}

// S constructs a symbolic variable in the default arena.
func S(name string, w uint8) *Expr { return defaultArena.S(name, w) }

// S constructs a symbolic variable. Names are meaningful per arena:
// the same name always denotes the same unknown, and under interning
// the same name and width always return the same node.
func (ar *Arena) S(name string, w uint8) *Expr {
	return ar.intern(internKey{kind: KSym, width: w, name: name})
}

// Bool converts a Go bool to the width-1 constants used as branch
// conditions.
func Bool(b bool) *Expr {
	if b {
		return C(1, 1)
	}
	return C(0, 1)
}

// IsConst reports whether e is a constant, returning its value.
func (e *Expr) IsConst() (uint32, bool) {
	if e.Kind == KConst {
		return e.Val, true
	}
	return 0, false
}

// IsTrue reports whether e is the constant true.
func (e *Expr) IsTrue() bool { return e.Kind == KConst && e.Val != 0 }

// IsFalse reports whether e is the constant false (zero).
func (e *Expr) IsFalse() bool { return e.Kind == KConst && e.Val == 0 }

func signExtend(v uint32, w uint8) int32 {
	shift := 32 - uint32(w)
	return int32(v<<shift) >> shift
}

// SignExtend interprets v as a signed w-bit value.
func SignExtend(v uint32, w uint8) int32 { return signExtend(v, w) }

// BinFold computes the arithmetic kind k (KAdd through KAshr) on two
// concrete w-bit values: the constant fold every constructor applies,
// exported so the engine can compute on machine words without building
// nodes that would fold anyway.
func BinFold(k Kind, a, b uint32, w uint8) uint32 {
	m := mask(w)
	switch k {
	case KAdd:
		return (a + b) & m
	case KSub:
		return (a - b) & m
	case KMul:
		return (a * b) & m
	case KAnd:
		return a & b
	case KOr:
		return a | b
	case KXor:
		return a ^ b
	case KShl:
		return (a << (b % 32)) & m
	case KLshr:
		return (a & m) >> (b % 32)
	case KAshr:
		return uint32(signExtend(a, w)>>(b%32)) & m
	}
	panic("expr: BinFold on non-arithmetic kind " + kindNames[k])
}

// Bin returns the arithmetic kind k (KAdd through KAshr) applied to a
// and b, folded and canonicalized like the named constructors.
func (ar *Arena) Bin(k Kind, a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic(fmt.Sprintf("expr: width mismatch %d vs %d in %s", a.Width, b.Width, kindNames[k]))
	}
	w := a.Width
	av, aConst := a.IsConst()
	bv, bConst := b.IsConst()
	if aConst && bConst {
		return ar.C(BinFold(k, av, bv, w), w)
	}
	// Algebraic identities with a constant operand.
	if bConst {
		switch {
		case bv == 0 && (k == KAdd || k == KSub || k == KOr || k == KXor || k == KShl || k == KLshr || k == KAshr):
			return a
		case bv == 0 && (k == KAnd || k == KMul):
			return ar.C(0, w)
		case bv == mask(w) && k == KAnd:
			return a
		case bv == 1 && k == KMul:
			return a
		}
	}
	if aConst {
		switch {
		case av == 0 && (k == KAdd || k == KOr || k == KXor):
			return b
		case av == 0 && (k == KAnd || k == KMul || k == KShl || k == KLshr || k == KAshr):
			return ar.C(0, w)
		case av == mask(w) && k == KAnd:
			return b
		case av == 1 && k == KMul:
			return b
		}
	}
	if Equal(a, b) {
		switch k {
		case KSub, KXor:
			return ar.C(0, w)
		case KAnd, KOr:
			return a
		}
	}
	// Canonicalize constants to the right for commutative operators,
	// re-associate (x op c1) op c2 => x op (c1 op c2), and order
	// non-constant operands by structural hash so the two operand
	// orders of a commutative application intern to one node.
	switch k {
	case KAdd, KMul, KAnd, KOr, KXor:
		if aConst {
			a, b = b, a
			av, aConst, bv, bConst = bv, bConst, av, aConst
		}
		if bConst && a.Kind == k {
			if iv, ok := a.B.IsConst(); ok {
				return ar.Bin(k, a.A, ar.C(BinFold(k, iv, bv, w), w))
			}
		}
		if !aConst && !bConst && a.Hash() > b.Hash() {
			a, b = b, a
		}
	case KSub:
		// x - c  =>  x + (-c), unifying with the KAdd re-association.
		if bConst {
			return ar.Bin(KAdd, a, ar.C(-bv&mask(w), w))
		}
	}
	_ = av
	return ar.intern(internKey{kind: k, width: w, a: a, b: b})
}

// Add returns a+b.
func Add(a, b *Expr) *Expr { return defaultArena.Add(a, b) }

// Add returns a+b.
func (ar *Arena) Add(a, b *Expr) *Expr { return ar.Bin(KAdd, a, b) }

// Sub returns a-b.
func Sub(a, b *Expr) *Expr { return defaultArena.Sub(a, b) }

// Sub returns a-b.
func (ar *Arena) Sub(a, b *Expr) *Expr { return ar.Bin(KSub, a, b) }

// Mul returns a*b (low bits).
func Mul(a, b *Expr) *Expr { return defaultArena.Mul(a, b) }

// Mul returns a*b (low bits).
func (ar *Arena) Mul(a, b *Expr) *Expr { return ar.Bin(KMul, a, b) }

// And returns a&b.
func And(a, b *Expr) *Expr { return defaultArena.And(a, b) }

// And returns a&b.
func (ar *Arena) And(a, b *Expr) *Expr { return ar.Bin(KAnd, a, b) }

// Or returns a|b.
func Or(a, b *Expr) *Expr { return defaultArena.Or(a, b) }

// Or returns a|b.
func (ar *Arena) Or(a, b *Expr) *Expr { return ar.Bin(KOr, a, b) }

// Xor returns a^b.
func Xor(a, b *Expr) *Expr { return defaultArena.Xor(a, b) }

// Xor returns a^b.
func (ar *Arena) Xor(a, b *Expr) *Expr { return ar.Bin(KXor, a, b) }

// Shl returns a << b (shift amount taken mod 32).
func Shl(a, b *Expr) *Expr { return defaultArena.Shl(a, b) }

// Shl returns a << b (shift amount taken mod 32).
func (ar *Arena) Shl(a, b *Expr) *Expr { return ar.Bin(KShl, a, b) }

// Lshr returns the logical right shift a >> b.
func Lshr(a, b *Expr) *Expr { return defaultArena.Lshr(a, b) }

// Lshr returns the logical right shift a >> b.
func (ar *Arena) Lshr(a, b *Expr) *Expr { return ar.Bin(KLshr, a, b) }

// Ashr returns the arithmetic right shift a >> b.
func Ashr(a, b *Expr) *Expr { return defaultArena.Ashr(a, b) }

// Ashr returns the arithmetic right shift a >> b.
func (ar *Arena) Ashr(a, b *Expr) *Expr { return ar.Bin(KAshr, a, b) }

// Eq returns the boolean a == b.
func Eq(a, b *Expr) *Expr { return defaultArena.Eq(a, b) }

// Eq returns the boolean a == b.
func (ar *Arena) Eq(a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic("expr: width mismatch in eq")
	}
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			return Bool(av == bv)
		}
	}
	if Equal(a, b) {
		return Bool(true)
	}
	// (x == c) where x is (y ^ c2) etc. left to the solver; keep one
	// cheap rule: zext(x) == c with c beyond x's range is false.
	if b.Kind == KConst && a.Kind == KZext && b.Val > mask(a.A.Width) {
		return Bool(false)
	}
	if a.Kind == KConst {
		a, b = b, a
	}
	if a.Kind != KConst && b.Kind != KConst && a.Hash() > b.Hash() {
		a, b = b, a
	}
	return ar.intern(internKey{kind: KEq, width: 1, a: a, b: b})
}

// Ult returns the boolean a < b, unsigned.
func Ult(a, b *Expr) *Expr { return defaultArena.Ult(a, b) }

// Ult returns the boolean a < b, unsigned.
func (ar *Arena) Ult(a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic("expr: width mismatch in ult")
	}
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			return Bool(av < bv)
		}
	}
	if b.IsFalse() {
		return Bool(false) // nothing is < 0
	}
	if Equal(a, b) {
		return Bool(false)
	}
	return ar.intern(internKey{kind: KUlt, width: 1, a: a, b: b})
}

// Slt returns the boolean a < b, signed at the operand width.
func Slt(a, b *Expr) *Expr { return defaultArena.Slt(a, b) }

// Slt returns the boolean a < b, signed at the operand width.
func (ar *Arena) Slt(a, b *Expr) *Expr {
	if a.Width != b.Width {
		panic("expr: width mismatch in slt")
	}
	if av, ok := a.IsConst(); ok {
		if bv, ok2 := b.IsConst(); ok2 {
			return Bool(signExtend(av, a.Width) < signExtend(bv, b.Width))
		}
	}
	if Equal(a, b) {
		return Bool(false)
	}
	return ar.intern(internKey{kind: KSlt, width: 1, a: a, b: b})
}

// Not returns the bitwise complement; at width 1 this is logical not.
func Not(a *Expr) *Expr { return defaultArena.Not(a) }

// Not returns the bitwise complement; at width 1 this is logical not.
func (ar *Arena) Not(a *Expr) *Expr {
	if v, ok := a.IsConst(); ok {
		return ar.C(^v, a.Width)
	}
	if a.Kind == KNot {
		return a.A
	}
	return ar.intern(internKey{kind: KNot, width: a.Width, a: a})
}

// Zext zero-extends a to width w.
func Zext(a *Expr, w uint8) *Expr { return defaultArena.Zext(a, w) }

// Zext zero-extends a to width w.
func (ar *Arena) Zext(a *Expr, w uint8) *Expr {
	if w < a.Width {
		panic("expr: zext narrows")
	}
	if w == a.Width {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return ar.C(v, w)
	}
	if a.Kind == KZext {
		return ar.Zext(a.A, w)
	}
	return ar.intern(internKey{kind: KZext, width: w, a: a})
}

// Trunc truncates a to width w.
func Trunc(a *Expr, w uint8) *Expr { return defaultArena.Trunc(a, w) }

// Trunc truncates a to width w.
func (ar *Arena) Trunc(a *Expr, w uint8) *Expr {
	if w > a.Width {
		panic("expr: trunc widens")
	}
	if w == a.Width {
		return a
	}
	if v, ok := a.IsConst(); ok {
		return ar.C(v, w)
	}
	if a.Kind == KZext && a.A.Width >= w {
		return ar.Trunc(a.A, w)
	}
	if a.Kind == KConcat && a.B.Width >= w {
		return ar.Trunc(a.B, w)
	}
	return ar.intern(internKey{kind: KTrunc, width: w, a: a})
}

// Concat concatenates hi over lo; the result has width
// hi.Width+lo.Width.
func Concat(hi, lo *Expr) *Expr { return defaultArena.Concat(hi, lo) }

// Concat concatenates hi over lo; the result has width
// hi.Width+lo.Width.
func (ar *Arena) Concat(hi, lo *Expr) *Expr {
	w := hi.Width + lo.Width
	if w > 32 {
		panic("expr: concat exceeds 32 bits")
	}
	if hv, ok := hi.IsConst(); ok {
		if lv, ok2 := lo.IsConst(); ok2 {
			return ar.C(hv<<lo.Width|lv, w)
		}
		if hv == 0 {
			return ar.Zext(lo, w)
		}
	}
	// concat(trunc(x>>k), trunc(x)) patterns from byte-wise memory
	// reassemble into x; handled by ExtractByte below.
	return ar.intern(internKey{kind: KConcat, width: w, a: hi, b: lo})
}

// Ite returns "if cond then a else b"; cond must have width 1.
func Ite(cond, a, b *Expr) *Expr { return defaultArena.Ite(cond, a, b) }

// Ite returns "if cond then a else b"; cond must have width 1.
func (ar *Arena) Ite(cond, a, b *Expr) *Expr {
	if cond.Width != 1 {
		panic("expr: ite condition must be width 1")
	}
	if a.Width != b.Width {
		panic("expr: ite arm width mismatch")
	}
	if cond.IsTrue() {
		return a
	}
	if cond.IsFalse() {
		return b
	}
	if Equal(a, b) {
		return a
	}
	return ar.intern(internKey{kind: KIte, width: a.Width, a: cond, b: a, c: b})
}

// ExtractByte returns byte i (0 = least significant) of e as a width-8
// expression.
func ExtractByte(e *Expr, i int) *Expr { return defaultArena.ExtractByte(e, i) }

// ExtractByte returns byte i (0 = least significant) of e as a width-8
// expression, recognizing the reassembly patterns produced by
// byte-granular symbolic memory.
func (ar *Arena) ExtractByte(e *Expr, i int) *Expr {
	if i*8 >= int(e.Width+7) {
		return ar.C(0, 8)
	}
	if v, ok := e.IsConst(); ok {
		return ar.C(v>>(8*i), 8)
	}
	if i == 0 {
		return ar.Trunc(e, 8)
	}
	return ar.Trunc(ar.Lshr(e, ar.C(uint32(8*i), e.Width)), 8)
}

// FromBytes32 assembles a 32-bit value from four width-8 byte
// expressions (b0 least significant).
func FromBytes32(b0, b1, b2, b3 *Expr) *Expr { return defaultArena.FromBytes32(b0, b1, b2, b3) }

// FromBytes32 assembles a 32-bit value from four width-8 byte
// expressions (b0 least significant), recognizing the case where all
// four bytes extract consecutive bytes of one source expression.
func (ar *Arena) FromBytes32(b0, b1, b2, b3 *Expr) *Expr {
	if src := commonSource(b0, b1, b2, b3); src != nil {
		return src
	}
	return ar.Concat(ar.Concat(b3, b2), ar.Concat(b1, b0))
}

// FromBytes16 assembles a 16-bit value from two byte expressions.
func FromBytes16(b0, b1 *Expr) *Expr { return defaultArena.Concat(b1, b0) }

// FromBytes16 assembles a 16-bit value from two byte expressions.
func (ar *Arena) FromBytes16(b0, b1 *Expr) *Expr { return ar.Concat(b1, b0) }

// commonSource detects b0..b3 = bytes 0..3 of a single 32-bit
// expression and returns that expression.
func commonSource(b0, b1, b2, b3 *Expr) *Expr {
	src := byteSource(b0, 0)
	if src == nil || src.Width != 32 {
		return nil
	}
	for i, b := range []*Expr{b1, b2, b3} {
		if !Equal(byteSource(b, i+1), src) {
			return nil
		}
	}
	return src
}

// byteSource returns x if e is structurally ExtractByte(x, i).
func byteSource(e *Expr, i int) *Expr {
	if e.Kind != KTrunc || e.Width != 8 {
		return nil
	}
	inner := e.A
	if i == 0 {
		return inner
	}
	if inner.Kind != KLshr {
		return nil
	}
	if sh, ok := inner.B.IsConst(); !ok || sh != uint32(8*i) {
		return nil
	}
	return inner.A
}

// Eval computes the concrete value of e under an assignment of
// symbolic variables. Missing variables evaluate to zero, matching
// the solver's completion of partial models. Evaluation is
// memoized over the expression DAG by interned ID: values produced by
// long execution paths share subtrees heavily, and a naive tree walk
// is exponential on them. Raw (un-interned) nodes are strict trees,
// so they recurse without memoization.
func Eval(e *Expr, env map[string]uint32) uint32 {
	return evalMemo(e, env, map[uint64]uint32{})
}

func evalMemo(e *Expr, env map[string]uint32, memo map[uint64]uint32) uint32 {
	if e.Kind == KConst {
		return e.Val
	}
	if e.id != 0 {
		if v, ok := memo[e.id]; ok {
			return v
		}
	}
	v := evalNode(e, env, memo)
	if e.id != 0 {
		memo[e.id] = v
	}
	return v
}

// Evaluator evaluates expressions under one fixed environment with a
// memo shared across calls, for callers that evaluate many
// constraints against the same model (checking a decoded state's
// witness against its path condition). Not safe for concurrent use.
type Evaluator struct {
	env  map[string]uint32
	memo map[uint64]uint32
}

// NewEvaluator returns an evaluator for the given environment. The
// environment is aliased, not copied; callers must not mutate it.
func NewEvaluator(env map[string]uint32) *Evaluator {
	return &Evaluator{env: env, memo: map[uint64]uint32{}}
}

// Eval computes e's value under the evaluator's environment.
func (v *Evaluator) Eval(e *Expr) uint32 { return evalMemo(e, v.env, v.memo) }

func evalNode(e *Expr, env map[string]uint32, memo map[uint64]uint32) uint32 {
	ev := func(x *Expr) uint32 { return evalMemo(x, env, memo) }
	switch e.Kind {
	case KSym:
		return env[e.Name] & mask(e.Width)
	case KAdd, KSub, KMul, KAnd, KOr, KXor, KShl, KLshr, KAshr:
		return BinFold(e.Kind, ev(e.A), ev(e.B), e.Width)
	case KEq:
		if ev(e.A) == ev(e.B) {
			return 1
		}
		return 0
	case KUlt:
		if ev(e.A) < ev(e.B) {
			return 1
		}
		return 0
	case KSlt:
		if signExtend(ev(e.A), e.A.Width) < signExtend(ev(e.B), e.B.Width) {
			return 1
		}
		return 0
	case KNot:
		return ^ev(e.A) & mask(e.Width)
	case KZext:
		return ev(e.A)
	case KTrunc:
		return ev(e.A) & mask(e.Width)
	case KConcat:
		return (ev(e.A)<<e.B.Width | ev(e.B)) & mask(e.Width)
	case KIte:
		if ev(e.A) != 0 {
			return ev(e.B)
		}
		return ev(e.C)
	}
	panic("expr: eval of unknown kind")
}

// Hash returns the structural hash of the expression. Interned nodes
// (everything built through the constructors) carry it from intern
// time; raw test nodes compute and cache it lazily, which is safe only
// single-goroutine — exactly the scope raw nodes exist in.
func (e *Expr) Hash() uint64 {
	if e.hash == 0 {
		e.hash = computeHash(e)
	}
	return e.hash
}

// String renders the expression in a compact LISP-ish syntax for
// debugging and trace dumps.
func (e *Expr) String() string {
	var b strings.Builder
	e.format(&b)
	return b.String()
}

func (e *Expr) format(b *strings.Builder) {
	switch e.Kind {
	case KConst:
		fmt.Fprintf(b, "%#x:%d", e.Val, e.Width)
	case KSym:
		fmt.Fprintf(b, "%s:%d", e.Name, e.Width)
	default:
		b.WriteByte('(')
		b.WriteString(kindNames[e.Kind])
		for _, sub := range []*Expr{e.A, e.B, e.C} {
			if sub != nil {
				b.WriteByte(' ')
				sub.format(b)
			}
		}
		b.WriteByte(')')
	}
}

// Size returns the number of distinct nodes in the DAG; a rough
// complexity measure used by tests and the solver's cache keys.
func (e *Expr) Size() int {
	return dagSize(e, map[*Expr]bool{})
}

func dagSize(e *Expr, seen map[*Expr]bool) int {
	if seen[e] {
		return 0
	}
	seen[e] = true
	n := 1
	for _, sub := range []*Expr{e.A, e.B, e.C} {
		if sub != nil {
			n += dagSize(sub, seen)
		}
	}
	return n
}
