// Package synthdrv executes synthesized drivers: it interprets the
// recovered CFG (the same state machine the generated C encodes)
// bound to a target operating system runtime and real device models.
//
// This is the reproduction's equivalent of compiling the synthesized
// C into a driver and loading it on the target OS (§4.2). Because the
// interpreter runs only recovered basic blocks — never the original
// binary — any reconstruction error (missing block, wrong edge, bad
// parameter count) shows up as divergence in the §5.2 equivalence
// checks or as a hit on an unexplored branch.
package synthdrv

import (
	"fmt"

	"revnic/internal/cfg"
	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/isa"
)

// TargetOS is the boilerplate side of a driver template: everything
// the synthesized functions call back into. Implementations live in
// package template (Windows, Linux, µC/OS-II, KitOS personalities).
type TargetOS interface {
	// Name identifies the target OS.
	Name() string
	// AllocMemory returns the address of n fresh bytes.
	AllocMemory(n uint32) uint32
	// AllocShared returns DMA-capable memory.
	AllocShared(n uint32) uint32
	// FreeMemory releases an allocation (may be a no-op).
	FreeMemory(addr uint32)
	// ReadPCIConfig exposes the bound device's PCI config space.
	ReadPCIConfig(off uint32) uint32
	// IndicateReceive delivers a received frame up the stack.
	IndicateReceive(frame []byte)
	// SendComplete signals transmit completion.
	SendComplete(status uint32)
	// Log receives driver error-log codes.
	Log(code uint32)
	// InitializeTimer registers the driver's timer handler.
	InitializeTimer(handler uint32)
	// SetTimer arms the timer (milliseconds).
	SetTimer(ms uint32)
	// Stall busy-waits.
	Stall(us uint32)
	// UpTime returns milliseconds since boot.
	UpTime() uint32
}

// ErrUnexplored is returned when execution reaches a branch the
// reverse engineering never exercised — the situation §4.1 says the
// developer must resolve by forcing the DBT through the missing
// blocks.
type ErrUnexplored struct {
	From, To uint32
}

func (e *ErrUnexplored) Error() string {
	return fmt.Sprintf("synthdrv: reached unexplored code %#x (from %#x)", e.To, e.From)
}

// Driver is a loaded synthesized driver instance.
type Driver struct {
	G   *cfg.Graph
	OS  TargetOS
	Bus *hw.Bus
	// Mem is the driver's flat memory: state allocations, stack and
	// DMA buffers live here at the same addresses the target OS
	// allocator hands out. It comes from the process-wide pool;
	// Mem.Free returns it once the driver is no longer used.
	Mem *hw.RAM
	// Ctx is the adapter context returned by Initialize.
	Ctx uint32
	// Stats counts interpreted blocks per entry-point role, the
	// instruction-path-length input to the performance models.
	BlocksRun map[string]int64

	// IOTap, when set, observes every hardware access the
	// synthesized driver performs — the I/O trace side of the §5.2
	// equivalence check.
	IOTap func(port, write bool, addr uint32, size int, value uint32)

	entries map[string]*cfg.Function
	// table indexes the recovered blocks by instruction slot from lo;
	// odd holds any block off that grid (see index).
	lo    uint32
	table []*cfg.BasicBlock
	odd   map[uint32]*cfg.BasicBlock

	timer  uint32
	blocks int64
	instrs int64
	ioOps  int64
}

// New prepares a synthesized driver for execution.
func New(g *cfg.Graph, os TargetOS, bus *hw.Bus) *Driver {
	d := &Driver{
		G: g, OS: os, Bus: bus,
		Mem:       hw.NewRAM(),
		BlocksRun: map[string]int64{},
		entries:   map[string]*cfg.Function{},
	}
	for _, f := range g.Funcs {
		if f.Role != "" {
			d.entries[f.Role] = f
		}
	}
	d.index()
	return d
}

// maxSparseSlots bounds the empty slots index may allocate, so a graph
// whose blocks lie far apart is not blown up into a table covering
// all of RAM.
const maxSparseSlots = 1 << 12

// index builds the dense dispatch table over the recovered blocks:
// one slot per isa.InstrSize bytes from the lowest block address. A
// block off that grid, or past the table when the blocks are too
// sparse for it, goes to the odd map.
func (d *Driver) index() {
	if len(d.G.Blocks) == 0 {
		return
	}
	lo, hi := ^uint32(0), uint32(0)
	for a := range d.G.Blocks {
		lo, hi = min(lo, a), max(hi, a)
	}
	d.lo = lo
	n := min(int((hi-lo)/isa.InstrSize)+1, len(d.G.Blocks)+maxSparseSlots)
	d.table = make([]*cfg.BasicBlock, n)
	for a, b := range d.G.Blocks {
		if off := a - lo; off%isa.InstrSize == 0 && off/isa.InstrSize < uint32(n) {
			d.table[off/isa.InstrSize] = b
			continue
		}
		if d.odd == nil {
			d.odd = map[uint32]*cfg.BasicBlock{}
		}
		d.odd[a] = b
	}
}

// block returns the recovered block at addr, nil when there is none.
func (d *Driver) block(addr uint32) *cfg.BasicBlock {
	if off := addr - d.lo; addr >= d.lo && off%isa.InstrSize == 0 && off/isa.InstrSize < uint32(len(d.table)) {
		return d.table[off/isa.InstrSize]
	}
	return d.odd[addr]
}

// Entry returns the recovered function with the given role.
func (d *Driver) Entry(role string) (*cfg.Function, bool) {
	f, ok := d.entries[role]
	return f, ok
}

// --- memory helpers ---

func (d *Driver) read(addr uint32, size int) (uint32, error) {
	if hw.IsMMIO(addr) {
		v := d.Bus.MMIORead(addr, size)
		if d.IOTap != nil {
			d.IOTap(false, false, addr, size, v)
		}
		return v, nil
	}
	v, ok := d.Mem.Load(addr, size)
	if !ok {
		return 0, fmt.Errorf("synthdrv: read outside memory at %#x", addr)
	}
	return v, nil
}

func (d *Driver) write(addr uint32, size int, v uint32) error {
	if hw.IsMMIO(addr) {
		d.Bus.MMIOWrite(addr, size, v)
		if d.IOTap != nil {
			d.IOTap(false, true, addr, size, v)
		}
		return nil
	}
	if !d.Mem.Store(addr, size, v) {
		return fmt.Errorf("synthdrv: write outside memory at %#x", addr)
	}
	return nil
}

// ReadMem implements hw.MemBus so DMA devices can reach the
// synthesized driver's buffers.
func (d *Driver) ReadMem(addr uint32, p []byte) { d.Mem.ReadMem(addr, p) }

// WriteMem implements hw.MemBus.
func (d *Driver) WriteMem(addr uint32, p []byte) { d.Mem.WriteMem(addr, p) }

// callLimit bounds interpreted blocks per entry invocation.
const callLimit = 500000

// Call runs a recovered function with the given arguments, returning
// r0. It is the runtime embodiment of the template placeholder call.
func (d *Driver) Call(f *cfg.Function, args ...uint32) (uint32, error) {
	var regs [isa.NumRegs]uint32
	sp := uint32(hw.StackTop)
	for i := len(args) - 1; i >= 0; i-- {
		sp -= 4
		if err := d.write(sp, 4, args[i]); err != nil {
			return 0, err
		}
	}
	sp -= 4
	const sentinel = 0xFFFFFFF0
	if err := d.write(sp, 4, sentinel); err != nil {
		return 0, err
	}
	regs[isa.SP] = sp

	role := f.Role
	if role == "" {
		role = "internal"
	}
	// BlocksRun is a string-keyed map: count this call's blocks
	// locally and add them once.
	var run int64
	defer func() {
		if run > 0 {
			d.BlocksRun[role] += run
		}
	}()
	pc := f.Entry
	blk := d.block(pc)
	budget := callLimit
	for {
		if budget <= 0 {
			return 0, fmt.Errorf("synthdrv: %s exceeded block budget", f.Name())
		}
		budget--
		if blk == nil {
			if pc == sentinel {
				return regs[isa.R0], nil
			}
			return 0, &ErrUnexplored{To: pc}
		}
		d.blocks++
		run++
		next, nextBlk, err := d.execBlock(blk, &regs)
		if err != nil {
			return 0, err
		}
		if next == sentinel {
			return regs[isa.R0], nil
		}
		pc, blk = next, nextBlk
		if blk == nil {
			blk = d.block(pc)
		}
	}
}

// TotalBlocks returns the total interpreted block count.
func (d *Driver) TotalBlocks() int64 { return d.blocks }

// Counters returns cumulative instruction and hardware-I/O operation
// counts, the path-length inputs to the performance models.
func (d *Driver) Counters() (instrs, ioOps int64) { return d.instrs, d.ioOps }

// execBlock interprets one recovered basic block, returning the next
// block address and, when the successor was checked, its block.
func (d *Driver) execBlock(blk *cfg.BasicBlock, regs *[isa.NumRegs]uint32) (uint32, *cfg.BasicBlock, error) {
	src2 := func(in isa.Instr) uint32 {
		if in.HasImmOperand() {
			return in.Imm
		}
		return regs[in.Rs2]
	}
	for _, in := range blk.Instrs {
		d.instrs++
		if in.Op.IsPortIO() {
			d.ioOps++
		}
		switch in.Op {
		case isa.NOP:
		case isa.MOVI:
			regs[in.Rd] = in.Imm
		case isa.MOV:
			regs[in.Rd] = regs[in.Rs1]
		case isa.ADD:
			regs[in.Rd] = regs[in.Rs1] + src2(in)
		case isa.SUB:
			regs[in.Rd] = regs[in.Rs1] - src2(in)
		case isa.AND:
			regs[in.Rd] = regs[in.Rs1] & src2(in)
		case isa.OR:
			regs[in.Rd] = regs[in.Rs1] | src2(in)
		case isa.XOR:
			regs[in.Rd] = regs[in.Rs1] ^ src2(in)
		case isa.SHL:
			regs[in.Rd] = regs[in.Rs1] << (src2(in) % 32)
		case isa.SHR:
			regs[in.Rd] = regs[in.Rs1] >> (src2(in) % 32)
		case isa.SAR:
			regs[in.Rd] = uint32(int32(regs[in.Rs1]) >> (src2(in) % 32))
		case isa.MUL:
			regs[in.Rd] = regs[in.Rs1] * src2(in)
		case isa.LD8, isa.LD16, isa.LD32:
			v, err := d.read(regs[in.Rs1]+in.Imm, in.Op.AccessSize())
			if err != nil {
				return 0, nil, err
			}
			regs[in.Rd] = v
		case isa.ST8, isa.ST16, isa.ST32:
			if err := d.write(regs[in.Rs1]+in.Imm, in.Op.AccessSize(), regs[in.Rs2]); err != nil {
				return 0, nil, err
			}
		case isa.IN8, isa.IN16, isa.IN32:
			port := regs[in.Rs1] + in.Imm
			v := d.Bus.PortRead(port, in.Op.AccessSize())
			if d.IOTap != nil {
				d.IOTap(true, false, port, in.Op.AccessSize(), v)
			}
			regs[in.Rd] = v
		case isa.OUT8, isa.OUT16, isa.OUT32:
			port := regs[in.Rs1] + in.Imm
			v := regs[in.Rs2] & hw.SizeMask(in.Op.AccessSize())
			d.Bus.PortWrite(port, in.Op.AccessSize(), v)
			if d.IOTap != nil {
				d.IOTap(true, true, port, in.Op.AccessSize(), v)
			}
		case isa.PUSH:
			regs[isa.SP] -= 4
			if err := d.write(regs[isa.SP], 4, regs[in.Rs1]); err != nil {
				return 0, nil, err
			}
		case isa.POP:
			v, err := d.read(regs[isa.SP], 4)
			if err != nil {
				return 0, nil, err
			}
			regs[in.Rd] = v
			regs[isa.SP] += 4
		case isa.JMP:
			return d.checkTarget(blk, in.Imm)
		case isa.JR:
			return d.checkTarget(blk, regs[in.Rs1])
		case isa.BR, isa.BRI:
			rhs := uint32(uint8(in.Rs2))
			if in.Op == isa.BR {
				rhs = regs[in.Rs2]
			}
			if condTrue(in.Cond(), regs[in.Rs1], rhs) {
				return d.checkTarget(blk, in.Imm)
			}
			return d.checkTarget(blk, blk.EndAddr())
		case isa.CALL, isa.CALLR:
			target := in.Imm
			if in.Op == isa.CALLR {
				target = regs[in.Rs1]
			}
			ret := blk.InstrAddrOfTerm() + isa.InstrSize
			if hw.IsAPIGate(target) {
				if err := d.apiCall(regs, hw.APIIndex(target)); err != nil {
					return 0, nil, err
				}
				return ret, nil, nil
			}
			regs[isa.SP] -= 4
			if err := d.write(regs[isa.SP], 4, ret); err != nil {
				return 0, nil, err
			}
			return d.checkTarget(blk, target)
		case isa.RET:
			ra, err := d.read(regs[isa.SP], 4)
			if err != nil {
				return 0, nil, err
			}
			regs[isa.SP] += 4 + in.Imm
			if ra == 0xFFFFFFF0 {
				return ra, nil, nil
			}
			return d.checkTarget(blk, ra)
		case isa.IRET, isa.HLT:
			return 0xFFFFFFF0, nil, nil
		}
	}
	// Split block without terminator: fall through.
	return d.checkTarget(blk, blk.EndAddr())
}

// checkTarget resolves a successor of from: the sentinel return
// address, or a recovered block.
func (d *Driver) checkTarget(from *cfg.BasicBlock, to uint32) (uint32, *cfg.BasicBlock, error) {
	if to == 0xFFFFFFF0 {
		return to, nil, nil
	}
	b := d.block(to)
	if b == nil {
		return 0, nil, &ErrUnexplored{From: from.Addr, To: to}
	}
	return to, b, nil
}

func condTrue(c isa.Cond, a, b uint32) bool {
	switch c {
	case isa.EQ:
		return a == b
	case isa.NE:
		return a != b
	case isa.LT:
		return int32(a) < int32(b)
	case isa.GE:
		return int32(a) >= int32(b)
	case isa.LTU:
		return a < b
	case isa.GEU:
		return a >= b
	}
	return false
}

// apiCall dispatches an OS upcall to the target OS runtime, with
// stdcall argument cleanup.
func (d *Driver) apiCall(regs *[isa.NumRegs]uint32, index uint32) error {
	if index >= guestos.NumAPIs {
		return fmt.Errorf("synthdrv: unknown API %d", index)
	}
	desc := guestos.Table[index]
	sp := regs[isa.SP]
	args := make([]uint32, desc.NArgs)
	for i := range args {
		v, err := d.read(sp+uint32(4*i), 4)
		if err != nil {
			return err
		}
		args[i] = v
	}
	ret := uint32(guestos.StatusSuccess)
	switch index {
	case guestos.APIRegisterMiniport:
		// The template registers entry points with the target OS
		// itself; a synthesized DriverEntry is not normally run, but
		// accept the call for completeness.
	case guestos.APIAllocateMemory:
		ret = d.OS.AllocMemory(args[0])
	case guestos.APIAllocateSharedMemory:
		ret = d.OS.AllocShared(args[0])
	case guestos.APIFreeMemory, guestos.APIFreeSharedMemory:
		d.OS.FreeMemory(args[0])
	case guestos.APIWriteErrorLogEntry, guestos.APIDebugPrint:
		d.OS.Log(args[0])
	case guestos.APIReadPCIConfig:
		ret = d.OS.ReadPCIConfig(args[0])
	case guestos.APIInitializeTimer:
		d.timer = args[0]
		d.OS.InitializeTimer(args[0])
	case guestos.APISetTimer:
		d.OS.SetTimer(args[0])
	case guestos.APIIndicateReceive:
		frame := make([]byte, args[1])
		d.ReadMem(args[0], frame)
		d.OS.IndicateReceive(frame)
	case guestos.APISendComplete:
		d.OS.SendComplete(args[0])
	case guestos.APIStallExecution:
		d.OS.Stall(args[0])
	case guestos.APIGetSystemUpTime:
		ret = d.OS.UpTime()
	}
	regs[isa.SP] = sp + uint32(4*desc.NArgs)
	regs[isa.R0] = ret
	return nil
}

// --- high-level driver operations (the template's public face) ---

// Initialize runs the recovered initialize entry point.
func (d *Driver) Initialize() error {
	f, ok := d.Entry("initialize")
	if !ok {
		return fmt.Errorf("synthdrv: no initialize entry recovered")
	}
	ctx, err := d.Call(f)
	if err != nil {
		return err
	}
	if ctx == 0 {
		return fmt.Errorf("synthdrv: initialize failed")
	}
	d.Ctx = ctx
	return nil
}

// Send transmits one frame through the synthesized send entry.
func (d *Driver) Send(frame []byte) (uint32, error) {
	f, ok := d.Entry("send")
	if !ok {
		return guestos.StatusFailure, fmt.Errorf("synthdrv: no send entry recovered")
	}
	buf := d.OS.AllocMemory(uint32(len(frame)))
	d.WriteMem(buf, frame)
	return d.Call(f, d.Ctx, buf, uint32(len(frame)))
}

// PumpInterrupts services the interrupt line via the recovered ISR.
func (d *Driver) PumpInterrupts(max int) (int, error) {
	f, ok := d.Entry("isr")
	if !ok {
		return 0, fmt.Errorf("synthdrv: no isr entry recovered")
	}
	n := 0
	for d.Bus.Line.Pending() && n < max {
		if _, err := d.Call(f, d.Ctx); err != nil {
			return n, err
		}
		n++
	}
	if d.Bus.Line.Pending() {
		return n, fmt.Errorf("synthdrv: line still pending after %d ISR runs", n)
	}
	return n, nil
}

// Query runs the recovered query entry for an OID.
func (d *Driver) Query(oid, n uint32) (uint32, []byte, error) {
	f, ok := d.Entry("query")
	if !ok {
		return guestos.StatusFailure, nil, fmt.Errorf("synthdrv: no query entry recovered")
	}
	buf := d.OS.AllocMemory(n)
	st, err := d.Call(f, d.Ctx, oid, buf, n)
	if err != nil {
		return st, nil, err
	}
	out := make([]byte, n)
	d.ReadMem(buf, out)
	return st, out, nil
}

// Set runs the recovered set entry for an OID.
func (d *Driver) Set(oid uint32, in []byte) (uint32, error) {
	f, ok := d.Entry("set")
	if !ok {
		return guestos.StatusFailure, fmt.Errorf("synthdrv: no set entry recovered")
	}
	buf := d.OS.AllocMemory(uint32(len(in)))
	d.WriteMem(buf, in)
	return d.Call(f, d.Ctx, oid, buf, uint32(len(in)))
}

// FireTimer invokes the recovered timer handler, if any.
func (d *Driver) FireTimer() error {
	if d.timer == 0 {
		return nil
	}
	blk := d.G.Blocks[d.timer]
	if blk == nil {
		return &ErrUnexplored{To: d.timer}
	}
	f := d.G.Funcs[d.timer]
	if f == nil {
		return fmt.Errorf("synthdrv: timer handler %#x not a recovered function", d.timer)
	}
	_, err := d.Call(f, d.Ctx)
	return err
}

// Halt runs the recovered halt entry.
func (d *Driver) Halt() error {
	f, ok := d.Entry("halt")
	if !ok {
		return fmt.Errorf("synthdrv: no halt entry recovered")
	}
	_, err := d.Call(f, d.Ctx)
	return err
}
