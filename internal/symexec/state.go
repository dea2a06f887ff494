package symexec

import (
	"maps"

	"revnic/internal/expr"
	"revnic/internal/isa"
)

// TermReason says why a state stopped executing.
type TermReason int

// Termination reasons.
const (
	TermRunning       TermReason = iota
	TermCompleted                // entry point returned to the sentinel
	TermKilledLoop               // polling-loop heuristic discarded it
	TermKilledDiscard            // entry-point completion discard (§3.2)
	TermError                    // infeasible/faulting path, terminated (§3.2:
	// "When any error state is reached, RevNIC terminates the
	// execution path and resumes a different one.")
	TermBudget    // exploration budget exhausted
	TermCancelled // cooperative cancellation (Config.Context cancelled)
	TermDeadline  // Config.Context's deadline passed
)

// String names the reason for logs and job results.
func (r TermReason) String() string {
	switch r {
	case TermRunning:
		return "running"
	case TermCompleted:
		return "completed"
	case TermKilledLoop:
		return "killed-loop"
	case TermKilledDiscard:
		return "killed-discard"
	case TermError:
		return "error"
	case TermBudget:
		return "budget"
	case TermCancelled:
		return "cancelled"
	case TermDeadline:
		return "deadline"
	}
	return "unknown"
}

// frame tracks one guest call for function-boundary reconstruction
// and def-use parameter recovery.
type frame struct {
	callSite uint32 // address of the call instruction
	target   uint32 // callee entry
	retAddr  uint32
	entrySP  uint32 // SP value at function entry ([entrySP] = RA)
}

// word is one 32-bit machine value: concrete, or a non-constant
// expression. Selective symbolic execution (§3) keeps values concrete
// until they meet a symbol, so concrete arithmetic runs on plain
// uint32s and never reaches the arena; a concrete word becomes a
// constant node only where it meets a symbolic operand, which makes
// every expression the engine builds the same canonical node it would
// be if all values were expressions.
type word struct {
	e *expr.Expr // non-constant value; nil when the word is concrete
	v uint32     // the concrete value when e is nil, else 0
}

// wordOf normalizes a 32-bit constructor result: a constant becomes
// the concrete form.
func wordOf(e *expr.Expr) word {
	if e.Kind == expr.KConst {
		return word{v: e.Val}
	}
	return word{e: e}
}

// concrete returns the word's value and whether it is concrete.
func (w word) concrete() (uint32, bool) { return w.v, w.e == nil }

// expr returns the word as a width-32 expression in ar.
func (w word) expr(ar *expr.Arena) *expr.Expr {
	if w.e != nil {
		return w.e
	}
	return ar.C(w.v, 32)
}

// eval returns the word's value with every symbol read as zero.
func (w word) eval() uint32 {
	if w.e != nil {
		return expr.Eval(w.e, nil)
	}
	return w.v
}

// State is one <path, block> execution state (§3.2): the registers,
// the COW symbolic memory, the accumulated path constraints, and
// bookkeeping for the exploration heuristics. Registers hold words:
// plain uint32s unless their value depends on a symbol.
type State struct {
	ID   int
	PC   uint32
	regs [isa.NumRegs]word
	Mem  *Memory

	// Constraints is the path condition.
	Constraints []*expr.Expr
	// witness is a model of Constraints: every constraint evaluates
	// to nonzero under it, unbound symbols reading as 0. It is
	// immutable and shared by Fork; a state whose path takes a branch
	// side the witness does not satisfy gets a new map with the
	// solver's model of that side laid over the old one.
	witness map[string]uint32

	// Stack of guest calls, for call/return trace markers.
	Frames []frame

	// Reason records why the state stopped (TermRunning while live).
	Reason TermReason
	// Result is r0 at completion.
	Result *expr.Expr

	// heapNext is the per-state OS allocator cursor (the OS side is
	// emulated by the engine during symbolic execution).
	heapNext uint32

	// localCount counts per-state block executions, feeding the
	// polling-loop detector.
	localCount map[uint32]int
	// lastBlock is the previous block's address for edge recording.
	lastBlock uint32
	hasLast   bool
	// pendingRet is the entry address of the function that just
	// returned, until r0 is next read (proving a return value) or
	// written (proving none) — §4.1's liveness check.
	pendingRet uint32
	// Depth counts blocks executed on this path.
	Depth int
}

// Fork clones the state for a branch split. Constraints and frames
// are copied shallowly then extended per side; memory forks COW.
func (s *State) Fork(id int) *State {
	c := &State{
		ID:         id,
		PC:         s.PC,
		regs:       s.regs,
		Mem:        s.Mem.Fork(),
		witness:    s.witness,
		heapNext:   s.heapNext,
		lastBlock:  s.lastBlock,
		hasLast:    s.hasLast,
		pendingRet: s.pendingRet,
		Depth:      s.Depth,
	}
	c.Constraints = append([]*expr.Expr{}, s.Constraints...)
	c.Frames = append([]frame{}, s.Frames...)
	c.localCount = make(map[uint32]int, len(s.localCount))
	for k, v := range s.localCount {
		c.localCount[k] = v
	}
	return c
}

// Constrain appends a path constraint that holds under the witness
// once m's bindings are laid over it; nil m keeps the witness, which
// must then satisfy c already.
func (s *State) Constrain(c *expr.Expr, m map[string]uint32) {
	if m != nil {
		w := make(map[string]uint32, len(s.witness)+len(m))
		maps.Copy(w, s.witness)
		maps.Copy(w, m)
		s.witness = w
	}
	if !c.IsTrue() {
		s.Constraints = append(s.Constraints, c)
	}
}

// ConcreteRegs returns a concrete witness of the register file under
// the empty model (symbolic registers evaluate with unset variables
// as zero); used for trace snapshots.
func (s *State) ConcreteRegs() [8]uint32 {
	var out [8]uint32
	for i, r := range s.regs {
		out[i] = r.eval()
	}
	return out
}
