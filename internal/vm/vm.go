// Package vm implements the concrete virtual machine, the one CPU on
// which every guest driver executes: registers, RAM, block dispatch,
// interrupt delivery, and interception of OS API call gates.
//
// The concrete VM serves three roles in the reproduction: it runs the
// original binary drivers against the behavioural NIC models ("real
// hardware") to record reference I/O traces; it is the concrete
// execution domain of selective symbolic execution (the OS side); and
// it runs the synthesized drivers for the equivalence checks of §5.2
// and the differential fuzzer. The two sides of those checks differ
// only in where their code comes from and which OS answers their
// calls: an original-side machine decodes its blocks from its RAM
// (through a loaded ir.Image), a synthesized-side machine takes them
// from the recovered graph's Table, and each installs its own OSCall
// handler. Both run on one dispatch path: Run fetches the next block
// from a dense slot table and executes it in one interpreter body,
// whose loads, stores, pushes and pops reach RAM inline.
package vm

import (
	"fmt"
	"slices"

	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/isa"
)

// MagicReturn is the sentinel return address pushed when the OS model
// invokes a driver entry point; reaching it ends the invocation.
const MagicReturn = 0xFFFFFFF0

// OSCallHandler is invoked when the guest calls an OS API gate. The
// handler must complete the call by invoking Machine.APIReturn.
type OSCallHandler func(m *Machine, index uint32) error

// IOEvent is one hardware access the CPU performed: port or MMIO,
// read or write, the address, the width in bytes and the value.
type IOEvent struct {
	Port  bool
	Write bool
	Addr  uint32
	Size  int
	Value uint32
}

// Machine is a concrete guest machine.
type Machine struct {
	RAM  *hw.RAM
	Regs [isa.NumRegs]uint32
	PC   uint32

	Bus *hw.Bus
	// OSCall intercepts API-gate calls; nil faults them.
	OSCall OSCallHandler
	// IntVector is the interrupt handler address, 0 = none installed.
	IntVector uint32
	// IntEnabled gates interrupt delivery.
	IntEnabled bool

	Halted bool
	Cycles uint64
	// Blocks counts executed blocks.
	Blocks uint64

	// Trace receives every hardware access the machine performs, in
	// order. The owner may reset or replace it between runs.
	Trace []IOEvent

	// img is the loaded program image, placed at base; slots and
	// other hold the blocks this machine has resolved, on the image's
	// instruction slots and elsewhere. A block is decoded from this
	// machine's RAM at its first execution and kept: a later store
	// into code that already ran does not retranslate it.
	img   *ir.Image
	base  uint32
	slots []*ir.Block
	other map[uint32]*ir.Block

	// tab, when set, is the machine's only code source (see UseTable).
	// from names the source of the next control transfer: 1 when the
	// machine was entered from outside, id+2 after block id ran.
	// pred holds, per target block id, the from of the last edge
	// recorded into it (0: none), so a block reached again along the
	// same edge costs a slice compare. edges holds the recorded edge
	// keys (see Edges), duplicates included until the next compaction.
	tab   *Table
	from  int32
	pred  []int32
	edges []uint64

	inISR bool
}

// New returns a machine with zeroed RAM attached to bus. The RAM comes
// from the process-wide pool; m.RAM.Free returns it once the machine
// is no longer used.
func New(bus *hw.Bus) *Machine {
	return &Machine{RAM: hw.NewRAM(), Bus: bus}
}

// Table is a fixed set of blocks indexed for dispatch: their ids in
// ascending address order, a dense table from instruction slot to id,
// and a map for blocks off that grid. It is read-only after NewTable,
// so one Table serves any number of machines at once. It points at
// the blocks it was given, so an instruction rewritten in place still
// shows.
type Table struct {
	addrs  []uint32
	blocks []*ir.Block
	// slots maps instruction slot i, at lo+i*isa.InstrSize, to the id
	// plus one of the block there (0: none); odd holds the ids of
	// blocks off that grid (see NewTable).
	lo    uint32
	slots []int32
	odd   map[uint32]int32
}

// maxSparseSlots bounds the empty slots NewTable may allocate, so
// blocks that lie far apart are not blown up into a table covering
// all of RAM.
const maxSparseSlots = 1 << 12

// NewTable indexes blocks, which must be in ascending address order;
// a block's index is its id. The slot table has one entry per
// isa.InstrSize bytes from the lowest block address; a block off that
// grid, or past the table when the blocks are too sparse for it, goes
// to the odd map.
func NewTable(blocks []*ir.Block) *Table {
	t := &Table{blocks: blocks, addrs: make([]uint32, len(blocks))}
	if len(blocks) == 0 {
		return t
	}
	for id, b := range blocks {
		t.addrs[id] = b.Addr
	}
	t.lo = t.addrs[0]
	n := min(int((t.addrs[len(t.addrs)-1]-t.lo)/isa.InstrSize)+1, len(t.addrs)+maxSparseSlots)
	t.slots = make([]int32, n)
	for id, a := range t.addrs {
		if off := a - t.lo; off%isa.InstrSize == 0 && off/isa.InstrSize < uint32(n) {
			t.slots[off/isa.InstrSize] = int32(id) + 1
			continue
		}
		if t.odd == nil {
			t.odd = map[uint32]int32{}
		}
		t.odd[a] = int32(id)
	}
	return t
}

// Addrs returns the addresses of the table's blocks in ascending
// order, indexed by block id. The slice is shared; do not modify it.
func (t *Table) Addrs() []uint32 { return t.addrs }

// ErrNoBlock stops a machine running a Table at an address the table
// holds no block for. From is the address of the block the machine
// ran last since it was entered, 0 when none.
type ErrNoBlock struct {
	From, To uint32
}

func (e *ErrNoBlock) Error() string {
	return fmt.Sprintf("vm: no block at %#x (from %#x)", e.To, e.From)
}

// UseTable makes t the machine's code: it runs t's blocks in place of
// its RAM, and stops with *ErrNoBlock at an address t holds no block
// for. The machine then never decodes its RAM, so stores into code do
// not change what runs. It records the edges it takes between t's
// blocks (see Edges).
func (m *Machine) UseTable(t *Table) {
	m.tab = t
	m.from = 1
	m.pred = make([]int32, len(t.addrs))
	m.edges = make([]uint64, 0, len(t.addrs))
}

// reach records the transfer from the block that ran last into block
// id of the table, and returns that block.
func (m *Machine) reach(id int32) *ir.Block {
	if m.pred[id] != m.from {
		m.addEdge(id)
	}
	m.from = id + 2
	return m.tab.blocks[id]
}

// addEdge records the edge from the block that ran last into block
// id, whose last recorded predecessor was another. A block whose
// predecessors alternate records the same edges over and over, so a
// full list is compacted before it grows, and grows only when
// compaction leaves it over half full: the list stays within twice
// the distinct edges.
func (m *Machine) addEdge(id int32) {
	m.pred[id] = m.from
	if len(m.edges) == cap(m.edges) && len(m.edges) > 0 {
		m.compactEdges()
		if len(m.edges) > cap(m.edges)/2 {
			m.edges = slices.Grow(m.edges, len(m.edges))
		}
	}
	m.edges = append(m.edges, uint64(m.from-1)<<32|uint64(id))
}

func (m *Machine) compactEdges() {
	slices.Sort(m.edges)
	m.edges = slices.Compact(m.edges)
}

// Edges returns, in ascending order, the distinct control transfers
// into the blocks of the machine's Table it has taken. Each is a key:
// the high 32 bits hold the source block's id plus one (0 when the
// machine was entered at the target by CallEntry or
// ServiceInterrupt), the low 32 bits the target's id; ids index
// Table.Addrs. Bit 63 is never set. The slice is the machine's own,
// valid until it runs again.
func (m *Machine) Edges() []uint64 {
	m.compactEdges()
	return m.edges
}

// LoadImage copies a program image into RAM at its base address,
// with a translation image of its own.
func (m *Machine) LoadImage(p *isa.Program) error { return m.Load(ir.NewImage(p)) }

// Load copies a translation image's program into RAM at its base
// address and drops every block resolved so far. Machines that load
// one Image share its translations: the first time a machine executes
// an instruction slot of the image, it takes the image's block if its
// own RAM holds exactly the bytes that block was decoded from, and
// translates its own RAM otherwise.
func (m *Machine) Load(img *ir.Image) error {
	code := img.Code()
	if !m.RAM.Contains(img.Base(), len(code)) {
		return fmt.Errorf("vm: image at %#x size %d exceeds RAM", img.Base(), len(code))
	}
	m.RAM.WriteMem(img.Base(), code)
	m.img = img
	m.base = img.Base()
	m.slots = make([]*ir.Block, img.Slots())
	m.other = nil
	return nil
}

// miss resolves a pc the slot table holds no block for. In a Table it
// is an off-grid block or *ErrNoBlock. On an image slot it is the
// image's block when this machine's RAM holds the bytes that block
// was decoded from, else a translation of the RAM, kept in the slot;
// anywhere else a translation kept in the other map.
func (m *Machine) miss(pc uint32) (*ir.Block, error) {
	if t := m.tab; t != nil {
		if id, ok := t.odd[pc]; ok {
			return m.reach(id), nil
		}
		var from uint32
		if m.from > 1 {
			from = t.addrs[m.from-2]
		}
		return nil, &ErrNoBlock{From: from, To: pc}
	}
	if m.img != nil {
		if i, ok := m.img.Slot(pc); ok {
			b, err := m.img.Get(pc)
			if err != nil || !m.RAM.Holds(pc, m.img.Source(b)) {
				if b, err = ir.Translate(m, pc); err != nil {
					return nil, err
				}
			}
			m.slots[i] = b
			return b, nil
		}
	}
	if b := m.other[pc]; b != nil {
		return b, nil
	}
	b, err := ir.Translate(m, pc)
	if err != nil {
		return nil, err
	}
	if m.other == nil {
		m.other = map[uint32]*ir.Block{}
	}
	m.other[pc] = b
	return b, nil
}

// FetchInstr implements ir.Reader over guest RAM.
func (m *Machine) FetchInstr(addr uint32) (isa.Instr, error) {
	var b [isa.InstrSize]byte
	if !m.RAM.Contains(addr, len(b)) {
		return isa.Instr{}, fmt.Errorf("vm: instruction fetch outside RAM at %#x", addr)
	}
	m.RAM.ReadMem(addr, b[:])
	return isa.Decode(b[:])
}

// ReadMem implements hw.MemBus for device DMA.
func (m *Machine) ReadMem(addr uint32, p []byte) { m.RAM.ReadMem(addr, p) }

// WriteMem implements hw.MemBus for device DMA.
func (m *Machine) WriteMem(addr uint32, p []byte) { m.RAM.WriteMem(addr, p) }

// Read reads size bytes of guest memory, routing MMIO to the bus.
func (m *Machine) Read(addr uint32, size int) (uint32, error) {
	if hw.IsMMIO(addr) {
		v := m.Bus.MMIORead(addr, size)
		m.Trace = append(m.Trace, IOEvent{false, false, addr, size, v})
		return v, nil
	}
	v, ok := m.RAM.Load(addr, size)
	if !ok {
		return 0, fmt.Errorf("vm: memory read outside RAM at %#x", addr)
	}
	return v, nil
}

// Write writes size bytes of guest memory, routing MMIO to the bus.
func (m *Machine) Write(addr uint32, size int, v uint32) error {
	if hw.IsMMIO(addr) {
		m.Bus.MMIOWrite(addr, size, v)
		m.Trace = append(m.Trace, IOEvent{false, true, addr, size, v})
		return nil
	}
	if !m.RAM.Store(addr, size, v) {
		return fmt.Errorf("vm: memory write outside RAM at %#x", addr)
	}
	return nil
}

// Read32 is a convenience wrapper for 32-bit reads.
func (m *Machine) Read32(addr uint32) uint32 {
	v, _ := m.Read(addr, 4)
	return v
}

// Write32 is a convenience wrapper for 32-bit writes.
func (m *Machine) Write32(addr, v uint32) { _ = m.Write(addr, 4, v) }

// Push pushes v on the guest stack.
func (m *Machine) Push(v uint32) error {
	m.Regs[isa.SP] -= 4
	if m.RAM.Store32(m.Regs[isa.SP], v) {
		return nil
	}
	return m.Write(m.Regs[isa.SP], 4, v)
}

// Pop pops the top of the guest stack.
func (m *Machine) Pop() (uint32, error) {
	sp := m.Regs[isa.SP]
	m.Regs[isa.SP] += 4
	if v, ok := m.RAM.Load32(sp); ok {
		return v, nil
	}
	return m.Read(sp, 4)
}

// Arg returns the i-th (0-based) stack argument of the current API
// call or entry-point invocation: [sp+4] is argument 0 (sp points at
// the return address).
func (m *Machine) Arg(i int) uint32 {
	return m.Read32(m.Regs[isa.SP] + 4 + uint32(i)*4)
}

// APIReturn completes an intercepted OS API call: sets the return
// value, pops the return address and nargs stack arguments (stdcall).
func (m *Machine) APIReturn(ret uint32, nargs int) error {
	m.Regs[isa.R0] = ret
	ra, err := m.Pop()
	if err != nil {
		return err
	}
	m.Regs[isa.SP] += uint32(nargs) * 4
	m.PC = ra
	return nil
}

func src2(regs *[isa.NumRegs]uint32, in isa.Instr) uint32 {
	if in.HasImmOperand() {
		return in.Imm
	}
	return regs[in.Rs2]
}

// StepBlock executes one block (or delivers one pending interrupt).
// It returns the block executed, or nil when an interrupt was
// delivered or the machine is halted. Cycles counts the block's
// completed instructions, also when one of them faults.
func (m *Machine) StepBlock() (*ir.Block, error) {
	_, b, err := m.run(1)
	return b, err
}

// Run executes until the machine halts or maxBlocks translation
// blocks have run, whichever is first; a delivered interrupt counts
// as a block. It returns the number of blocks executed.
func (m *Machine) Run(maxBlocks int) (int, error) {
	n, _, err := m.run(maxBlocks)
	return n, err
}

// run is the dispatch loop of StepBlock and Run. It fetches each
// block from the machine's slot table in line, leaves every other
// address to miss, and returns the block it executed last, nil when
// that step delivered an interrupt.
func (m *Machine) run(maxBlocks int) (n int, b *ir.Block, err error) {
	for ; !m.Halted && n < maxBlocks; n++ {
		b = nil
		if m.IntEnabled {
			ok, err := m.interrupt()
			if err != nil {
				return n, nil, err
			}
			if ok {
				continue
			}
		}
		pc := m.PC
		if t := m.tab; t != nil {
			if off := pc - t.lo; pc >= t.lo && off%isa.InstrSize == 0 && off/isa.InstrSize < uint32(len(t.slots)) {
				if id := t.slots[off/isa.InstrSize] - 1; id >= 0 {
					b = m.reach(id)
				}
			}
		} else if off := pc - m.base; pc >= m.base && off%isa.InstrSize == 0 && off/isa.InstrSize < uint32(len(m.slots)) {
			b = m.slots[off/isa.InstrSize]
		}
		if b == nil {
			if b, err = m.miss(pc); err != nil {
				return n, nil, err
			}
		}
		if err = m.exec(b); err != nil {
			return n, b, err
		}
	}
	return n, b, nil
}

// interrupt delivers a pending interrupt between blocks, like QEMU
// between TBs, and reports whether it did. run calls it only while
// interrupts are enabled.
func (m *Machine) interrupt() (bool, error) {
	if m.inISR || m.IntVector == 0 || !m.Bus.Line.Pending() {
		return false, nil
	}
	if err := m.Push(m.PC); err != nil {
		return false, err
	}
	m.PC = m.IntVector
	m.inISR = true
	return true, nil
}

// exec executes block b, the block at m.PC, and sets the PC to its
// successor. It is the machine's one interpreter body.
func (m *Machine) exec(b *ir.Block) error {
	m.Blocks++
	regs := &m.Regs
	next := b.EndAddr()
	for i, in := range b.Instrs {
		var err error
		switch in.Op {
		case isa.NOP:
		case isa.MOVI:
			regs[in.Rd] = in.Imm
		case isa.MOV:
			regs[in.Rd] = regs[in.Rs1]
		case isa.ADD:
			regs[in.Rd] = regs[in.Rs1] + src2(regs, in)
		case isa.SUB:
			regs[in.Rd] = regs[in.Rs1] - src2(regs, in)
		case isa.AND:
			regs[in.Rd] = regs[in.Rs1] & src2(regs, in)
		case isa.OR:
			regs[in.Rd] = regs[in.Rs1] | src2(regs, in)
		case isa.XOR:
			regs[in.Rd] = regs[in.Rs1] ^ src2(regs, in)
		case isa.SHL:
			regs[in.Rd] = regs[in.Rs1] << (src2(regs, in) % 32)
		case isa.SHR:
			regs[in.Rd] = regs[in.Rs1] >> (src2(regs, in) % 32)
		case isa.SAR:
			regs[in.Rd] = uint32(int32(regs[in.Rs1]) >> (src2(regs, in) % 32))
		case isa.MUL:
			regs[in.Rd] = regs[in.Rs1] * src2(regs, in)
		// Loads and stores try RAM inline; MMIO and faults go through
		// Read and Write.
		case isa.LD8:
			if v, ok := m.RAM.Load8(regs[in.Rs1] + in.Imm); ok {
				regs[in.Rd] = v
			} else {
				err = m.load(in)
			}
		case isa.LD16:
			if v, ok := m.RAM.Load16(regs[in.Rs1] + in.Imm); ok {
				regs[in.Rd] = v
			} else {
				err = m.load(in)
			}
		case isa.LD32:
			if v, ok := m.RAM.Load32(regs[in.Rs1] + in.Imm); ok {
				regs[in.Rd] = v
			} else {
				err = m.load(in)
			}
		case isa.ST8:
			if !m.RAM.Store8(regs[in.Rs1]+in.Imm, regs[in.Rs2]) {
				err = m.store(in)
			}
		case isa.ST16:
			if !m.RAM.Store16(regs[in.Rs1]+in.Imm, regs[in.Rs2]) {
				err = m.store(in)
			}
		case isa.ST32:
			if !m.RAM.Store32(regs[in.Rs1]+in.Imm, regs[in.Rs2]) {
				err = m.store(in)
			}
		case isa.IN8, isa.IN16, isa.IN32:
			port := regs[in.Rs1] + in.Imm
			v := m.Bus.PortRead(port, in.Op.AccessSize())
			m.Trace = append(m.Trace, IOEvent{true, false, port, in.Op.AccessSize(), v})
			regs[in.Rd] = v
		case isa.OUT8, isa.OUT16, isa.OUT32:
			port := regs[in.Rs1] + in.Imm
			v := regs[in.Rs2] & hw.SizeMask(in.Op.AccessSize())
			m.Bus.PortWrite(port, in.Op.AccessSize(), v)
			m.Trace = append(m.Trace, IOEvent{true, true, port, in.Op.AccessSize(), v})
		case isa.PUSH:
			v := regs[in.Rs1]
			regs[isa.SP] -= 4
			if !m.RAM.Store32(regs[isa.SP], v) {
				err = m.Write(regs[isa.SP], 4, v)
			}
		case isa.POP:
			sp := regs[isa.SP]
			regs[isa.SP] += 4
			v, ok := m.RAM.Load32(sp)
			if !ok {
				v, err = m.Read(sp, 4)
			}
			if err == nil {
				regs[in.Rd] = v
			}
		case isa.JMP:
			next = in.Imm
		case isa.JR:
			next = regs[in.Rs1]
		case isa.BR, isa.BRI:
			rhs := uint32(uint8(in.Rs2))
			if in.Op == isa.BR {
				rhs = regs[in.Rs2]
			}
			if in.Cond().Holds(regs[in.Rs1], rhs) {
				next = in.Imm
			}
		case isa.CALL, isa.CALLR:
			next = in.Imm
			if in.Op == isa.CALLR {
				next = regs[in.Rs1]
			}
			if err = m.Push(b.InstrAddr(i) + isa.InstrSize); err != nil || !hw.IsAPIGate(next) {
				break
			}
			if m.OSCall == nil {
				err = fmt.Errorf("API call %#x with no OS handler", next)
				break
			}
			// The handler sees the PC at the gate and ends with
			// APIReturn, which sets the PC to the return address.
			m.PC = next
			err = m.OSCall(m, hw.APIIndex(next))
			next = m.PC
		case isa.RET, isa.IRET:
			var ra uint32
			if ra, err = m.Pop(); err != nil {
				break
			}
			if in.Op == isa.RET {
				regs[isa.SP] += in.Imm
			} else {
				m.inISR = false
			}
			next = ra
			if ra == MagicReturn {
				m.Halted = true
			}
		case isa.HLT:
			m.Halted = true
		default:
			err = fmt.Errorf("unimplemented opcode %v", in.Op)
		}
		if err != nil {
			m.Cycles += uint64(i)
			return fmt.Errorf("vm: at %#x (%s): %w", b.InstrAddr(i), in.Disassemble(), err)
		}
	}
	m.Cycles += uint64(len(b.Instrs))
	m.PC = next
	return nil
}

// load is the slow path of a load the RAM did not serve: MMIO, or a
// fault outside the RAM.
func (m *Machine) load(in isa.Instr) error {
	v, err := m.Read(m.Regs[in.Rs1]+in.Imm, in.Op.AccessSize())
	if err == nil {
		m.Regs[in.Rd] = v
	}
	return err
}

// store is the slow path of a store the RAM did not take: MMIO, or a
// fault outside the RAM.
func (m *Machine) store(in isa.Instr) error {
	return m.Write(m.Regs[in.Rs1]+in.Imm, in.Op.AccessSize(), m.Regs[in.Rs2])
}

// CallEntry invokes a guest function at addr with the given stack
// arguments (stdcall: callee pops them) and runs it to completion.
// It returns the function's r0 return value.
func (m *Machine) CallEntry(addr uint32, maxBlocks int, args ...uint32) (uint32, error) {
	if m.Regs[isa.SP] == 0 {
		m.Regs[isa.SP] = hw.StackTop
	}
	for i := len(args) - 1; i >= 0; i-- {
		if err := m.Push(args[i]); err != nil {
			return 0, err
		}
	}
	if err := m.Push(MagicReturn); err != nil {
		return 0, err
	}
	m.PC = addr
	m.Halted = false
	m.from = 1
	n, err := m.Run(maxBlocks)
	if err != nil {
		return 0, err
	}
	if n >= maxBlocks && !m.Halted {
		return 0, fmt.Errorf("vm: entry %#x did not complete within %d blocks", addr, maxBlocks)
	}
	m.Halted = false
	return m.Regs[isa.R0], nil
}

// ServiceInterrupt runs the installed interrupt handler to completion
// if the line is pending, returning whether a handler ran. It is used
// when the guest is otherwise idle (no entry point executing), which
// is when real hardware would interrupt the idle loop.
func (m *Machine) ServiceInterrupt(maxBlocks int) (bool, error) {
	if !m.Bus.Line.Pending() || m.IntVector == 0 || !m.IntEnabled || m.inISR {
		return false, nil
	}
	if m.Regs[isa.SP] == 0 {
		m.Regs[isa.SP] = hw.StackTop
	}
	if err := m.Push(MagicReturn); err != nil {
		return false, err
	}
	m.PC = m.IntVector
	m.inISR = true
	m.Halted = false
	m.from = 1
	n, err := m.Run(maxBlocks)
	if err != nil {
		return true, err
	}
	if n >= maxBlocks && !m.Halted {
		return true, fmt.Errorf("vm: interrupt handler did not complete within %d blocks", maxBlocks)
	}
	m.Halted = false
	m.inISR = false
	return true, nil
}

// InISR reports whether the CPU is inside an interrupt handler.
func (m *Machine) InISR() bool { return m.inISR }
