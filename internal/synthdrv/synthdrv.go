// Package synthdrv executes synthesized drivers: it runs the
// recovered CFG (the same state machine the generated C encodes) on
// the concrete VM, bound to a target operating system runtime and
// real device models.
//
// This is the reproduction's equivalent of compiling the synthesized
// C into a driver and loading it on the target OS (§4.2). The driver
// runs on the same vm.Machine as the original binary; only its code
// source and its OS differ. The machine's blocks come from the
// recovered graph, never from the original binary, and its OS calls
// go to the template runtime. So any reconstruction error (missing
// block, wrong edge, bad parameter count) shows up as divergence in
// the §5.2 equivalence checks or as a hit on an unexplored branch.
package synthdrv

import (
	"fmt"
	"slices"

	"revnic/internal/cfg"
	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/isa"
	"revnic/internal/vm"
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

// Code is the dispatch index of one recovered graph: its blocks as a
// vm.Table, ids in ascending address order, and the entry points by
// role. It depends only on the graph, so one Code serves every driver
// built from that graph, concurrently; it is read-only after NewCode.
// It points at the graph's blocks, so an instruction rewritten in
// place (a planted bug) still shows.
type Code struct {
	g       *cfg.Graph
	entries map[string]*cfg.Function
	tab     *vm.Table
}

// NewCode indexes g.
func NewCode(g *cfg.Graph) *Code {
	c := &Code{g: g, entries: map[string]*cfg.Function{}}
	for _, f := range g.Funcs {
		if f.Role != "" {
			c.entries[f.Role] = f
		}
	}
	addrs := make([]uint32, 0, len(g.Blocks))
	for a := range g.Blocks {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	blocks := make([]*ir.Block, len(addrs))
	for id, a := range addrs {
		blocks[id] = &g.Blocks[a].Block
	}
	c.tab = vm.NewTable(blocks)
	return c
}

// Addrs returns the addresses of the recovered blocks in ascending
// order, indexed by block id. The slice is shared; do not modify it.
func (c *Code) Addrs() []uint32 { return c.tab.Addrs() }

// EdgeTarget returns the id of the block that edge key k (see
// Driver.Edges) leads to.
func EdgeTarget(k uint64) int { return int(uint32(k)) }

// Driver is a loaded synthesized driver instance.
type Driver struct {
	Code *Code
	OS   TargetOS
	// M is the machine the driver runs on. It runs the Code's table
	// and records the edges between recovered blocks. Its RAM holds
	// the state allocations, stack and DMA buffers at the addresses
	// the target OS allocator hands out; it comes from the
	// process-wide pool, and M.RAM.Free returns it once the driver is
	// no longer used.
	M *vm.Machine
	// Ctx is the adapter context returned by Initialize.
	Ctx uint32

	timer uint32
}

// New prepares a synthesized driver for execution on a fresh machine
// attached to bus.
func New(c *Code, os TargetOS, bus *hw.Bus) *Driver {
	d := &Driver{Code: c, OS: os, M: vm.New(bus)}
	d.M.UseTable(c.tab)
	d.M.OSCall = d.apiCall
	return d
}

// Edges returns, in ascending order, the distinct control transfers
// into recovered blocks the driver has taken. Each is a key: the high
// 32 bits hold the source block's id plus one (0 when a call entered
// the target), the low 32 bits the target's id (see EdgeTarget); ids
// index Code.Addrs. Bit 63 is never set. The slice is the driver's
// own, valid until it runs again.
func (d *Driver) Edges() []uint64 { return d.M.Edges() }

// Entry returns the recovered function with the given role.
func (d *Driver) Entry(role string) (*cfg.Function, bool) {
	f, ok := d.Code.entries[role]
	return f, ok
}

// callLimit bounds executed blocks per entry invocation.
const callLimit = 500000

// Call runs a recovered function with the given arguments, returning
// r0. It is the runtime embodiment of the template placeholder call.
// Every call starts with zeroed registers and the stack pointer at
// hw.StackTop.
func (d *Driver) Call(f *cfg.Function, args ...uint32) (uint32, error) {
	d.M.Regs = [isa.NumRegs]uint32{isa.SP: hw.StackTop}
	r0, err := d.M.CallEntry(f.Entry, callLimit, args...)
	if nb, ok := err.(*vm.ErrNoBlock); ok {
		return r0, &ErrUnexplored{From: nb.From, To: nb.To}
	}
	return r0, err
}

// apiCall is the machine's OS call handler: it dispatches an OS
// upcall to the target OS runtime, with stdcall argument cleanup.
func (d *Driver) apiCall(m *vm.Machine, index uint32) error {
	if index >= guestos.NumAPIs {
		return fmt.Errorf("synthdrv: unknown API %d", index)
	}
	ret := uint32(guestos.StatusSuccess)
	switch index {
	case guestos.APIRegisterMiniport:
		// The template registers entry points with the target OS
		// itself; a synthesized DriverEntry is not normally run, but
		// accept the call for completeness.
	case guestos.APIAllocateMemory:
		ret = d.OS.AllocMemory(m.Arg(0))
	case guestos.APIAllocateSharedMemory:
		ret = d.OS.AllocShared(m.Arg(0))
	case guestos.APIFreeMemory, guestos.APIFreeSharedMemory:
		d.OS.FreeMemory(m.Arg(0))
	case guestos.APIWriteErrorLogEntry, guestos.APIDebugPrint:
		d.OS.Log(m.Arg(0))
	case guestos.APIReadPCIConfig:
		ret = d.OS.ReadPCIConfig(m.Arg(0))
	case guestos.APIInitializeTimer:
		d.timer = m.Arg(0)
		d.OS.InitializeTimer(d.timer)
	case guestos.APISetTimer:
		d.OS.SetTimer(m.Arg(0))
	case guestos.APIIndicateReceive:
		frame := make([]byte, m.Arg(1))
		m.ReadMem(m.Arg(0), frame)
		d.OS.IndicateReceive(frame)
	case guestos.APISendComplete:
		d.OS.SendComplete(m.Arg(0))
	case guestos.APIStallExecution:
		d.OS.Stall(m.Arg(0))
	case guestos.APIGetSystemUpTime:
		ret = d.OS.UpTime()
	}
	return m.APIReturn(ret, guestos.Table[index].NArgs)
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
	d.M.WriteMem(buf, frame)
	return d.Call(f, d.Ctx, buf, uint32(len(frame)))
}

// PumpInterrupts services the interrupt line via the recovered ISR.
func (d *Driver) PumpInterrupts(max int) (int, error) {
	f, ok := d.Entry("isr")
	if !ok {
		return 0, fmt.Errorf("synthdrv: no isr entry recovered")
	}
	n := 0
	for d.M.Bus.Line.Pending() && n < max {
		if _, err := d.Call(f, d.Ctx); err != nil {
			return n, err
		}
		n++
	}
	if d.M.Bus.Line.Pending() {
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
	d.M.ReadMem(buf, out)
	return st, out, nil
}

// Set runs the recovered set entry for an OID.
func (d *Driver) Set(oid uint32, in []byte) (uint32, error) {
	f, ok := d.Entry("set")
	if !ok {
		return guestos.StatusFailure, fmt.Errorf("synthdrv: no set entry recovered")
	}
	buf := d.OS.AllocMemory(uint32(len(in)))
	d.M.WriteMem(buf, in)
	return d.Call(f, d.Ctx, oid, buf, uint32(len(in)))
}

// FireTimer invokes the recovered timer handler, if any.
func (d *Driver) FireTimer() error {
	if d.timer == 0 {
		return nil
	}
	blk := d.Code.g.Blocks[d.timer]
	if blk == nil {
		return &ErrUnexplored{To: d.timer}
	}
	f := d.Code.g.Funcs[d.timer]
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
