// Package cfg rebuilds the control flow graph of the reverse
// engineered driver from the merged wiretap traces (§4.1 of the
// paper): function boundaries are identified from call/return pairs,
// translation blocks are split into basic blocks at observed jump
// targets, asynchronous handlers become their own roots, and def-use
// evidence from the traces determines parameter counts and return
// values.
//
// A BasicBlock embeds the ir.Block it was cut to, so the graph is
// also executable code: the synthesized driver (package synthdrv)
// hands its blocks to the VM as they are, and an edit to a block's
// instructions reaches only that side.
package cfg

import (
	"fmt"
	"sort"

	"revnic/internal/ir"
	"revnic/internal/isa"
	"revnic/internal/trace"
)

// BasicBlock is one reconstructed basic block. Its embedded ir.Block
// is what a synthesized driver executes: the VM runs it as is.
type BasicBlock struct {
	ir.Block
	// Succs are the intra-function successor addresses in the
	// recovered graph (call targets excluded; the fallthrough after
	// a call is a successor).
	Succs []uint32
	// Unexplored lists successor addresses that were never executed:
	// "Incompleteness manifests in the generated source by branches
	// to unexercised code. RevNIC flags such branches to warn the
	// developer" (§4.1).
	Unexplored []uint32
	// IO are the hardware accesses recorded for this block's
	// instructions.
	IO []trace.Access
	// TouchesOS marks blocks that invoke OS API functions.
	TouchesOS bool
	// Count is the merged execution count.
	Count int64
}

// Function is one recovered driver function.
type Function struct {
	Entry uint32
	// Role is the entry-point role if this function was registered
	// with the OS ("initialize", "send", "isr", ...), else "".
	Role string
	// Async marks interrupt/timer handlers.
	Async bool
	// Blocks maps address to basic block, all reachable from Entry.
	Blocks map[uint32]*BasicBlock
	// Callees are the functions this one calls.
	Callees []uint32
	// NumParams and HasReturn come from the def-use analysis.
	NumParams int
	HasReturn bool
	// PopBytes is the callee argument cleanup observed in the
	// function's RET instructions (stdcall); generated call sites
	// restore the virtual stack by this amount.
	PopBytes uint32
	// HasHW / HasOS classify the function for the Figure 9
	// breakdown: HW-only and pure-algorithm functions are fully
	// synthesizable; OS-calling functions need template integration.
	HasHW bool
	HasOS bool
}

// Name synthesizes the identifier used in generated code.
func (f *Function) Name() string {
	if f.Role != "" {
		return fmt.Sprintf("mp_%s_%x", f.Role, f.Entry)
	}
	return fmt.Sprintf("function_%x", f.Entry)
}

// SortedBlocks returns the function's blocks in address order.
func (f *Function) SortedBlocks() []*BasicBlock {
	out := make([]*BasicBlock, 0, len(f.Blocks))
	for _, b := range f.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Graph is the recovered whole-driver CFG.
type Graph struct {
	Funcs map[uint32]*Function
	// Blocks is the global basic-block map (blocks may be shared by
	// functions if traces revealed overlapping code).
	Blocks map[uint32]*BasicBlock
}

// SortedFuncs returns functions in entry-address order.
func (g *Graph) SortedFuncs() []*Function {
	out := make([]*Function, 0, len(g.Funcs))
	for _, f := range g.Funcs {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entry < out[j].Entry })
	return out
}

// Build reconstructs the CFG from merged traces.
func Build(col *trace.Collector) *Graph {
	g := &Graph{Funcs: map[uint32]*Function{}, Blocks: map[uint32]*BasicBlock{}}

	// 1. Collect all split points: every observed block start and
	// every observed control-transfer target.
	splits := map[uint32]bool{}
	for a := range col.Blocks {
		splits[a] = true
	}
	for e := range col.Edges {
		splits[e.To] = true
	}

	// 2. Split translation blocks into basic blocks. Overlapping
	// translation blocks reduce to identical basic blocks, so keyed
	// insertion deduplicates them. Address order keeps the build a
	// pure function of the trace contents (map order must not leak
	// into which variant's IO records a merged block keeps).
	for _, a := range col.SortedBlockAddrs() {
		bi := col.Blocks[a]
		tb := bi.Block
		start := 0
		for i := range tb.Instrs {
			addr := tb.InstrAddr(i)
			if i != start && splits[addr] {
				g.addBasicBlock(col, bi, tb.InstrAddr(start), tb.Instrs[start:i])
				start = i
			}
		}
		g.addBasicBlock(col, bi, tb.InstrAddr(start), tb.Instrs[start:])
	}

	// 3. Successors and unexplored branches.
	for _, b := range g.Blocks {
		g.linkBlock(col, b)
	}

	// 4. Function roots: observed call targets, registered entry
	// points, async handlers.
	roots := map[uint32]bool{}
	for _, targets := range col.Calls {
		for t := range targets {
			roots[t] = true
		}
	}
	for a := range col.EntryPoints {
		roots[a] = true
	}
	for a := range col.AsyncEntries {
		roots[a] = true
	}
	for root := range roots {
		if g.Blocks[root] == nil {
			continue // registered but never executed
		}
		f := &Function{
			Entry:  root,
			Role:   col.EntryPoints[root],
			Async:  col.AsyncEntries[root],
			Blocks: map[uint32]*BasicBlock{},
		}
		g.Funcs[root] = f
		g.assignBlocks(f, roots)
		f.NumParams = col.FuncParams[root]
		f.HasReturn = col.FuncReturns[root]
		// Entry points return their status/context to the OS, which
		// the wiretap cannot observe consuming; the OS interface
		// documentation says they return values (§3.2).
		if f.Role != "" {
			f.HasReturn = true
		}
		for _, b := range f.Blocks {
			if t := b.Term(); t.Op == isa.RET && t.Imm > f.PopBytes {
				f.PopBytes = t.Imm
			}
		}
		calleeSet := map[uint32]bool{}
		for _, b := range f.Blocks {
			if len(b.IO) > 0 {
				f.HasHW = true
			}
			if b.TouchesOS {
				f.HasOS = true
			}
			t := b.Term()
			if t.Op == isa.CALL && roots[t.Imm] {
				calleeSet[t.Imm] = true
			}
			if t.Op == isa.CALLR {
				for site, targets := range col.Calls {
					if site == b.InstrAddrOfTerm() {
						for tgt := range targets {
							calleeSet[tgt] = true
						}
					}
				}
			}
		}
		f.Callees = sortedKeys(calleeSet)
	}
	return g
}

// InstrAddrOfTerm returns the address of the block's terminator.
func (b *BasicBlock) InstrAddrOfTerm() uint32 {
	return b.Addr + uint32(len(b.Instrs)-1)*isa.InstrSize
}

func sortedKeys(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *Graph) addBasicBlock(col *trace.Collector, bi *trace.BlockInfo, addr uint32, instrs []isa.Instr) {
	if len(instrs) == 0 {
		return
	}
	merged := bi.Count
	touchesOS := bi.TouchesOS
	var oldIO []trace.Access
	if old := g.Blocks[addr]; old != nil {
		// Keep the longer variant; counts, OS-call marks and IO
		// records merge either way so the result does not depend on
		// insertion order. Merging IO matters because the collector
		// dedups accesses globally per instruction — a record lives
		// in exactly one translation-block variant, and dropping the
		// losing variant's records would lose hardware accesses.
		if len(instrs) <= len(old.Instrs) {
			old.Count += bi.Count
			old.TouchesOS = old.TouchesOS || bi.TouchesOS
			mergeIO(old, bi.IO)
			return
		}
		merged += old.Count
		touchesOS = touchesOS || old.TouchesOS
		oldIO = old.IO
	}
	b := &BasicBlock{Block: ir.Block{Addr: addr, Instrs: instrs}, Count: merged, TouchesOS: touchesOS}
	end := b.EndAddr()
	for _, a := range bi.IO {
		if a.InstrAddr >= addr && a.InstrAddr < end {
			b.IO = append(b.IO, a)
		}
	}
	mergeIO(b, oldIO)
	g.Blocks[addr] = b
}

// mergeIO appends the in-range accesses of io not already present in
// b (same instruction, class and direction), preserving io's order.
func mergeIO(b *BasicBlock, io []trace.Access) {
	end := b.EndAddr()
	for _, a := range io {
		if a.InstrAddr < b.Addr || a.InstrAddr >= end {
			continue
		}
		dup := false
		for _, have := range b.IO {
			if have.InstrAddr == a.InstrAddr && have.Class == a.Class && have.Write == a.Write {
				dup = true
				break
			}
		}
		if !dup {
			b.IO = append(b.IO, a)
		}
	}
}

// linkBlock computes successors; targets never observed in the traces
// are flagged unexplored.
func (g *Graph) linkBlock(col *trace.Collector, b *BasicBlock) {
	add := func(to uint32) {
		if g.Blocks[to] != nil {
			b.Succs = append(b.Succs, to)
		} else {
			b.Unexplored = append(b.Unexplored, to)
		}
	}
	t := b.Term()
	switch t.Op {
	case isa.JMP:
		add(t.Imm)
	case isa.BR, isa.BRI:
		add(t.Imm)
		add(b.EndAddr())
	case isa.JR:
		// Observed indirect targets come from the edge set, in
		// address order (the edge set is a map).
		site := b.InstrAddrOfTerm()
		targets := map[uint32]bool{}
		for e := range col.Edges {
			if e.From == site {
				targets[e.To] = true
			}
		}
		for _, to := range sortedKeys(targets) {
			add(to)
		}
	case isa.CALL, isa.CALLR:
		// Control returns to the fallthrough; the callee is a
		// separate function.
		add(b.EndAddr())
	case isa.RET, isa.IRET, isa.HLT:
		// No intra-function successors.
	default:
		// Split block without terminator: straight-line successor.
		add(b.EndAddr())
	}
}

// assignBlocks walks intra-function edges from the function entry.
// Blocks that are themselves roots of other functions are not
// absorbed (tail-duplicated code would be, which matches how RevNIC
// chains translation blocks between call/return pairs).
func (g *Graph) assignBlocks(f *Function, roots map[uint32]bool) {
	work := []uint32{f.Entry}
	for len(work) > 0 {
		addr := work[len(work)-1]
		work = work[:len(work)-1]
		if _, done := f.Blocks[addr]; done {
			continue
		}
		b := g.Blocks[addr]
		if b == nil {
			continue
		}
		f.Blocks[addr] = b
		for _, s := range b.Succs {
			if s != f.Entry && roots[s] && s != addr {
				continue // flows into another function: stop
			}
			work = append(work, s)
		}
	}
}

// Stats summarizes a recovered graph.
type Stats struct {
	Funcs            int
	Blocks           int
	AutomatedFuncs   int // no OS interaction: fully synthesized
	ManualFuncs      int // call the OS: need template integration
	MixedFuncs       int // both hardware and OS access (type 3)
	UnexploredJumps  int
	HardwareAccesses int
}

// ComputeStats classifies the graph for the Figure 9 breakdown.
func (g *Graph) ComputeStats() Stats {
	var s Stats
	s.Funcs = len(g.Funcs)
	s.Blocks = len(g.Blocks)
	for _, f := range g.Funcs {
		if f.HasOS {
			s.ManualFuncs++
			if f.HasHW {
				s.MixedFuncs++
			}
		} else {
			s.AutomatedFuncs++
		}
	}
	for _, b := range g.Blocks {
		s.UnexploredJumps += len(b.Unexplored)
		s.HardwareAccesses += len(b.IO)
	}
	return s
}
