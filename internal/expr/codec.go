package expr

import (
	"fmt"
)

// This file implements the wire codec that lets expression DAGs cross
// process boundaries — the piece of RevNIC's distributed exploration
// mode that ships symbolic states (registers, memory overlays, path
// constraints) to peer nodes and gets completed states back.
//
// A WireDAG is a flat node table in child-before-parent order plus a
// list of root references. Encoding deduplicates by interned identity,
// so shared subtrees — rampant in path constraints — are emitted once
// no matter how many roots reach them. Decoding rebuilds every node
// through the arena *constructors*, not raw interning: constructors
// are deterministic and idempotent on already-canonical structures
// (the only structures an encoder ever sees), so the decoded DAG is
// structurally identical to the source, node for node. That property
// is what makes remote shard execution bit-identical to local: the
// peer's engine sees exactly the expressions the coordinator's worker
// child would have seen.

// WireNode is one serialized expression node. Child references are
// 1-based indices into the WireDAG node table (0 = absent) and always
// point to earlier entries.
type WireNode struct {
	K uint8  `json:"k"`
	W uint8  `json:"w"`
	V uint32 `json:"v,omitempty"`
	N string `json:"n,omitempty"`
	A int32  `json:"a,omitempty"`
	B int32  `json:"b,omitempty"`
	C int32  `json:"c,omitempty"`
}

// WireDAG is a serialized expression DAG: a deduplicated node table in
// dependency order and the roots the caller asked to encode, as
// 1-based table references (0 encodes a nil root, which callers use
// for optional expressions like an incomplete state's Result).
type WireDAG struct {
	Nodes []WireNode `json:"nodes,omitempty"`
	Roots []int32    `json:"roots,omitempty"`
}

// DAGEncoder accumulates expressions into one shared node table, so a
// caller serializing many related values (every register, memory byte
// and constraint of a state group) emits each distinct node once.
// Not safe for concurrent use.
type DAGEncoder struct {
	nodes  []WireNode
	seen   map[uint64]int32 // interned ID -> 1-based table index
	consts map[uint64]int32 // width<<32 | value -> 1-based table index
}

// NewDAGEncoder returns an empty encoder.
func NewDAGEncoder() *DAGEncoder {
	return &DAGEncoder{seen: map[uint64]int32{}, consts: map[uint64]int32{}}
}

// Add encodes e (sharing already-emitted subtrees) and returns its
// 1-based table reference; nil encodes as 0.
func (enc *DAGEncoder) Add(e *Expr) int32 {
	if e == nil {
		return 0
	}
	if e.Kind == KConst {
		return enc.Const(e.Val, e.Width)
	}
	if ref, ok := enc.seen[e.id]; ok {
		return ref
	}
	// Children first, so references always point backwards.
	a := enc.Add(e.A)
	b := enc.Add(e.B)
	c := enc.Add(e.C)
	enc.nodes = append(enc.nodes, WireNode{
		K: uint8(e.Kind), W: e.Width, V: e.Val, N: e.Name, A: a, B: b, C: c,
	})
	ref := int32(len(enc.nodes))
	enc.seen[e.id] = ref
	return ref
}

// Const encodes the constant v of width w without building a node, so
// callers holding plain machine words need no arena to serialize them.
// It shares one table entry with every equal constant Add meets.
func (enc *DAGEncoder) Const(v uint32, w uint8) int32 {
	v &= mask(w)
	key := uint64(w)<<32 | uint64(v)
	if ref, ok := enc.consts[key]; ok {
		return ref
	}
	enc.nodes = append(enc.nodes, WireNode{K: uint8(KConst), W: w, V: v})
	ref := int32(len(enc.nodes))
	enc.consts[key] = ref
	return ref
}

// Nodes returns the accumulated table. The encoder stays usable; the
// table is aliased, so callers should be done adding.
func (enc *DAGEncoder) Nodes() []WireNode { return enc.nodes }

// EncodeDAG serializes the given roots into one WireDAG.
func EncodeDAG(roots []*Expr) WireDAG {
	enc := NewDAGEncoder()
	refs := make([]int32, len(roots))
	for i, r := range roots {
		refs[i] = enc.Add(r)
	}
	return WireDAG{Nodes: enc.nodes, Roots: refs}
}

// DAGDecoder rebuilds expressions from a wire node table into one
// arena. Decoding validates structure as it goes — references must
// point backwards, widths must satisfy the constructor contracts — and
// returns an error instead of panicking on malformed input, because
// wire bytes arrive from the network (possibly torn mid-payload).
type DAGDecoder struct {
	ar    *Arena
	nodes []WireNode
	built []*Expr
}

// NewDAGDecoder prepares to decode the given node table into ar.
func (ar *Arena) NewDAGDecoder(nodes []WireNode) *DAGDecoder {
	return &DAGDecoder{ar: ar, nodes: nodes, built: make([]*Expr, len(nodes))}
}

// Ref resolves a wire reference to its decoded expression; 0 resolves
// to nil. Nodes decode lazily and memoize, so the cost of a table is
// paid once no matter how many values reference into it.
func (d *DAGDecoder) Ref(ref int32) (e *Expr, err error) {
	if ref == 0 {
		return nil, nil
	}
	// Constructors panic on contract violations (width mismatches and
	// the like); on attacker- or corruption-shaped input that must
	// surface as a decode error, not a crash.
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("expr: decode: %v", r)
		}
	}()
	return d.resolve(ref)
}

func (d *DAGDecoder) resolve(ref int32) (*Expr, error) {
	if ref < 1 || int(ref) > len(d.nodes) {
		return nil, fmt.Errorf("expr: decode: reference %d outside table of %d nodes", ref, len(d.nodes))
	}
	if e := d.built[ref-1]; e != nil {
		return e, nil
	}
	n := d.nodes[ref-1]
	// Child references must strictly precede the node, which both
	// rules out reference cycles and bounds recursion.
	for _, c := range [3]int32{n.A, n.B, n.C} {
		if c >= ref {
			return nil, fmt.Errorf("expr: decode: node %d references forward to %d", ref, c)
		}
	}
	var a, b, c *Expr
	var err error
	if a, err = d.childOf(n.A); err != nil {
		return nil, err
	}
	if b, err = d.childOf(n.B); err != nil {
		return nil, err
	}
	if c, err = d.childOf(n.C); err != nil {
		return nil, err
	}
	e, err := d.construct(n, a, b, c)
	if err != nil {
		return nil, err
	}
	d.built[ref-1] = e
	return e, nil
}

func (d *DAGDecoder) childOf(ref int32) (*Expr, error) {
	if ref == 0 {
		return nil, nil
	}
	return d.resolve(ref)
}

// construct rebuilds one node through the canonicalizing arena
// constructors. An encoder only ever emits canonical nodes, and every
// constructor is idempotent on canonical operands, so this reproduces
// the source structure exactly.
func (d *DAGDecoder) construct(n WireNode, a, b, c *Expr) (*Expr, error) {
	if n.W < 1 || n.W > 32 {
		return nil, fmt.Errorf("expr: decode: width %d out of range", n.W)
	}
	k := Kind(n.K)
	switch k {
	case KConst:
		return d.ar.C(n.V, n.W), nil
	case KSym:
		if n.N == "" {
			return nil, fmt.Errorf("expr: decode: symbol without a name")
		}
		return d.ar.S(n.N, n.W), nil
	}
	need := 1
	if k == KIte || (k != KNot && k != KZext && k != KTrunc) {
		need = 2
	}
	if k == KIte {
		need = 3
	}
	have := 0
	for _, ch := range [3]*Expr{a, b, c} {
		if ch != nil {
			have++
		}
	}
	if have != need {
		return nil, fmt.Errorf("expr: decode: kind %d has %d operands, needs %d", n.K, have, need)
	}
	switch k {
	case KAdd:
		return d.ar.Add(a, b), nil
	case KSub:
		return d.ar.Sub(a, b), nil
	case KMul:
		return d.ar.Mul(a, b), nil
	case KAnd:
		return d.ar.And(a, b), nil
	case KOr:
		return d.ar.Or(a, b), nil
	case KXor:
		return d.ar.Xor(a, b), nil
	case KShl:
		return d.ar.Shl(a, b), nil
	case KLshr:
		return d.ar.Lshr(a, b), nil
	case KAshr:
		return d.ar.Ashr(a, b), nil
	case KEq:
		return d.ar.Eq(a, b), nil
	case KUlt:
		return d.ar.Ult(a, b), nil
	case KSlt:
		return d.ar.Slt(a, b), nil
	case KNot:
		return d.ar.Not(a), nil
	case KZext:
		return d.ar.Zext(a, n.W), nil
	case KTrunc:
		return d.ar.Trunc(a, n.W), nil
	case KConcat:
		return d.ar.Concat(a, b), nil
	case KIte:
		return d.ar.Ite(a, b, c), nil
	}
	return nil, fmt.Errorf("expr: decode: unknown kind %d", n.K)
}

// DecodeDAG rebuilds a WireDAG's roots in the arena.
func (ar *Arena) DecodeDAG(d WireDAG) ([]*Expr, error) {
	dec := ar.NewDAGDecoder(d.Nodes)
	out := make([]*Expr, len(d.Roots))
	for i, ref := range d.Roots {
		e, err := dec.Ref(ref)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}
