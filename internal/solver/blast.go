// The bit-blaster: expression DAGs to CNF over a SAT instance. The
// blaster plus package sat form the core backend (backend.go).
package solver

import (
	"revnic/internal/expr"
	"revnic/internal/sat"
)

// blaster converts expression DAGs to CNF over a SAT instance. Bit i
// of a value is lits[i] (LSB first). The memo keys on interned
// expression IDs, so a blaster living across queries (the incremental
// session) translates each distinct sub-expression once.
//
// Every variable is a symbol bit or the output of an AND, XOR or MUX
// gate, whose clauses define it as a total function of its inputs.
// inputs records each gate's input variables, so the session can
// restrict branching to a query's cone (markCone).
type blaster struct {
	s     *sat.Solver
	memo  map[uint64][]sat.Lit
	syms  map[string][]sat.Lit
	true_ sat.Lit
	// inputs[3v:3v+3] are the input variables of gate variable v. The
	// constant variable 0 never needs deciding, so 0 also pads the
	// slots of two-input gates and of symbol bits.
	inputs []uint32
	stack  []uint32 // markCone's work list
}

func newBlaster() *blaster {
	b := &blaster{
		s:    sat.New(),
		memo: map[uint64][]sat.Lit{},
		syms: map[string][]sat.Lit{},
	}
	// The constant is variable 0: fresh pads its input slots with the
	// still-zero b.true_, variable 0, which reads as "no input".
	b.true_ = b.fresh()
	b.s.AddClause(b.true_)
	return b
}

// markCone opens a restricted decision set on b.s holding the cone of
// the given literals: their variables and, transitively, the inputs
// of every gate among them.
func (b *blaster) markCone(lits []sat.Lit) {
	b.s.Restrict()
	stack := b.stack[:0]
	for _, l := range lits {
		if v := l.Var(); b.s.Mark(v) {
			stack = append(stack, uint32(v))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range b.inputs[3*v : 3*v+3] {
			if in != 0 && b.s.Mark(int(in)) {
				stack = append(stack, in)
			}
		}
	}
	b.stack = stack
}

// model reads the satisfying assignment for every symbol the blaster
// has translated. Valid only directly after a successful Solve or
// SolveUnder on b.s. After a search restricted to a query's cone, the
// symbols outside the cone read their saved phases (sat.Value): the
// query does not constrain them, and their last values keep the
// witness close to the session's earlier ones, which is what lets the
// counterexample index reuse it for other queries.
func (b *blaster) model() map[string]uint32 {
	model := make(map[string]uint32, len(b.syms))
	for name, bits := range b.syms {
		var v uint32
		for i, lit := range bits {
			if b.s.Value(lit.Var()) != lit.Sign() {
				v |= 1 << i
			}
		}
		model[name] = v
	}
	return model
}

func (b *blaster) constLit(v bool) sat.Lit {
	if v {
		return b.true_
	}
	return b.true_.Not()
}

func (b *blaster) isConst(l sat.Lit) (bool, bool) {
	if l == b.true_ {
		return true, true
	}
	if l == b.true_.Not() {
		return false, true
	}
	return false, false
}

// fresh returns a new input variable: a symbol bit (or the constant).
func (b *blaster) fresh() sat.Lit { return b.gate(b.true_, b.true_, b.true_) }

// gate returns a new variable defined by the caller's clauses over
// the inputs x, y and z (b.true_ for an unused input).
func (b *blaster) gate(x, y, z sat.Lit) sat.Lit {
	b.inputs = append(b.inputs, uint32(x.Var()), uint32(y.Var()), uint32(z.Var()))
	return sat.Pos(b.s.NewVar())
}

// gateAnd returns a literal equivalent to x ∧ y.
func (b *blaster) gateAnd(x, y sat.Lit) sat.Lit {
	if v, ok := b.isConst(x); ok {
		if !v {
			return b.constLit(false)
		}
		return y
	}
	if v, ok := b.isConst(y); ok {
		if !v {
			return b.constLit(false)
		}
		return x
	}
	if x == y {
		return x
	}
	if x == y.Not() {
		return b.constLit(false)
	}
	out := b.gate(x, y, b.true_)
	b.s.AddClause(out.Not(), x)
	b.s.AddClause(out.Not(), y)
	b.s.AddClause(out, x.Not(), y.Not())
	return out
}

func (b *blaster) gateOr(x, y sat.Lit) sat.Lit {
	return b.gateAnd(x.Not(), y.Not()).Not()
}

func (b *blaster) gateXor(x, y sat.Lit) sat.Lit {
	if v, ok := b.isConst(x); ok {
		if v {
			return y.Not()
		}
		return y
	}
	if v, ok := b.isConst(y); ok {
		if v {
			return x.Not()
		}
		return x
	}
	if x == y {
		return b.constLit(false)
	}
	if x == y.Not() {
		return b.constLit(true)
	}
	out := b.gate(x, y, b.true_)
	b.s.AddClause(out.Not(), x, y)
	b.s.AddClause(out.Not(), x.Not(), y.Not())
	b.s.AddClause(out, x.Not(), y)
	b.s.AddClause(out, x, y.Not())
	return out
}

// gateMux returns c ? x : y.
func (b *blaster) gateMux(c, x, y sat.Lit) sat.Lit {
	if v, ok := b.isConst(c); ok {
		if v {
			return x
		}
		return y
	}
	if x == y {
		return x
	}
	out := b.gate(c, x, y)
	b.s.AddClause(c.Not(), x.Not(), out)
	b.s.AddClause(c.Not(), x, out.Not())
	b.s.AddClause(c, y.Not(), out)
	b.s.AddClause(c, y, out.Not())
	return out
}

// fullAdder returns (sum, carryOut) for x + y + cin.
func (b *blaster) fullAdder(x, y, cin sat.Lit) (sum, cout sat.Lit) {
	sum = b.gateXor(b.gateXor(x, y), cin)
	cout = b.gateOr(b.gateAnd(x, y), b.gateAnd(cin, b.gateXor(x, y)))
	return sum, cout
}

func (b *blaster) adder(x, y []sat.Lit, cin sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	c := cin
	for i := range x {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out
}

func (b *blaster) negBits(x []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i, l := range x {
		out[i] = l.Not()
	}
	return out
}

// ult returns the borrow chain result of a - b: true iff a < b
// unsigned.
func (b *blaster) ult(x, y []sat.Lit) sat.Lit {
	borrow := b.constLit(false)
	for i := range x {
		// borrow' = (~x & y) | ((~x | y) & borrow)
		nx := x[i].Not()
		borrow = b.gateOr(b.gateAnd(nx, y[i]), b.gateAnd(b.gateOr(nx, y[i]), borrow))
	}
	return borrow
}

func (b *blaster) shiftConst(x []sat.Lit, k int, kind expr.Kind) []sat.Lit {
	w := len(x)
	out := make([]sat.Lit, w)
	for i := range out {
		switch kind {
		case expr.KShl:
			if i-k >= 0 {
				out[i] = x[i-k]
			} else {
				out[i] = b.constLit(false)
			}
		case expr.KLshr:
			if i+k < w {
				out[i] = x[i+k]
			} else {
				out[i] = b.constLit(false)
			}
		case expr.KAshr:
			if i+k < w {
				out[i] = x[i+k]
			} else {
				out[i] = x[w-1]
			}
		}
	}
	return out
}

// blast returns the bit literals of e, LSB first.
func (b *blaster) blast(e *expr.Expr) []sat.Lit {
	if bits, ok := b.memo[e.ID()]; ok {
		return bits
	}
	bits := b.blastUncached(e)
	if len(bits) != int(e.Width) {
		panic("solver: width mismatch in blasting")
	}
	b.memo[e.ID()] = bits
	return bits
}

func (b *blaster) blastUncached(e *expr.Expr) []sat.Lit {
	w := int(e.Width)
	switch e.Kind {
	case expr.KConst:
		out := make([]sat.Lit, w)
		for i := range out {
			out[i] = b.constLit(e.Val>>i&1 == 1)
		}
		return out
	case expr.KSym:
		if bits, ok := b.syms[e.Name]; ok {
			if len(bits) != w {
				panic("solver: symbol " + e.Name + " used at two widths")
			}
			return bits
		}
		bits := make([]sat.Lit, w)
		for i := range bits {
			bits[i] = b.fresh()
		}
		b.syms[e.Name] = bits
		return bits
	case expr.KAdd:
		return b.adder(b.blast(e.A), b.blast(e.B), b.constLit(false))
	case expr.KSub:
		return b.adder(b.blast(e.A), b.negBits(b.blast(e.B)), b.constLit(true))
	case expr.KMul:
		x, y := b.blast(e.A), b.blast(e.B)
		acc := make([]sat.Lit, w)
		for i := range acc {
			acc[i] = b.constLit(false)
		}
		for i := 0; i < w; i++ {
			// Partial product: (x << i) masked by y[i].
			pp := make([]sat.Lit, w)
			for j := range pp {
				if j < i {
					pp[j] = b.constLit(false)
				} else {
					pp[j] = b.gateAnd(x[j-i], y[i])
				}
			}
			acc = b.adder(acc, pp, b.constLit(false))
		}
		return acc
	case expr.KAnd, expr.KOr, expr.KXor:
		x, y := b.blast(e.A), b.blast(e.B)
		out := make([]sat.Lit, w)
		for i := range out {
			switch e.Kind {
			case expr.KAnd:
				out[i] = b.gateAnd(x[i], y[i])
			case expr.KOr:
				out[i] = b.gateOr(x[i], y[i])
			case expr.KXor:
				out[i] = b.gateXor(x[i], y[i])
			}
		}
		return out
	case expr.KShl, expr.KLshr, expr.KAshr:
		x := b.blast(e.A)
		if k, ok := e.B.IsConst(); ok {
			return b.shiftConst(x, int(k%32), e.Kind)
		}
		// Barrel shifter over the low 5 bits of the amount (shifts
		// are defined mod 32, matching expr.Eval and the VM).
		amt := b.blast(e.B)
		cur := x
		for stage := 0; stage < 5 && 1<<stage < 32; stage++ {
			if stage >= len(amt) {
				break
			}
			shifted := b.shiftConst(cur, 1<<stage, e.Kind)
			next := make([]sat.Lit, w)
			for i := range next {
				next[i] = b.gateMux(amt[stage], shifted[i], cur[i])
			}
			cur = next
		}
		return cur
	case expr.KEq:
		x, y := b.blast(e.A), b.blast(e.B)
		acc := b.constLit(true)
		for i := range x {
			acc = b.gateAnd(acc, b.gateXor(x[i], y[i]).Not())
		}
		return []sat.Lit{acc}
	case expr.KUlt:
		return []sat.Lit{b.ult(b.blast(e.A), b.blast(e.B))}
	case expr.KSlt:
		// Flip sign bits and compare unsigned.
		x := append([]sat.Lit{}, b.blast(e.A)...)
		y := append([]sat.Lit{}, b.blast(e.B)...)
		x[len(x)-1] = x[len(x)-1].Not()
		y[len(y)-1] = y[len(y)-1].Not()
		return []sat.Lit{b.ult(x, y)}
	case expr.KNot:
		return b.negBits(b.blast(e.A))
	case expr.KZext:
		x := b.blast(e.A)
		out := make([]sat.Lit, w)
		for i := range out {
			if i < len(x) {
				out[i] = x[i]
			} else {
				out[i] = b.constLit(false)
			}
		}
		return out
	case expr.KTrunc:
		return b.blast(e.A)[:w:w]
	case expr.KConcat:
		lo := b.blast(e.B)
		hi := b.blast(e.A)
		out := make([]sat.Lit, 0, w)
		out = append(out, lo...)
		out = append(out, hi...)
		return out
	case expr.KIte:
		c := b.blast(e.A)[0]
		x, y := b.blast(e.B), b.blast(e.C)
		out := make([]sat.Lit, w)
		for i := range out {
			out[i] = b.gateMux(c, x[i], y[i])
		}
		return out
	}
	panic("solver: cannot blast kind")
}
