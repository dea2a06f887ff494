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
// from the recovered graph through Lookup, and each installs its own
// OSCall handler.
package vm

import (
	"fmt"

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

// IOTap observes every hardware I/O operation the CPU performs; the
// wiretap and the equivalence checker register taps.
type IOTap func(port bool, write bool, addr uint32, size int, value uint32)

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

	// Lookup, when set, supplies the blocks the machine runs in place
	// of its RAM: it returns the block at pc, or the error that stops
	// execution, which StepBlock returns unwrapped. The machine then
	// never decodes its RAM, so stores into code do not change what
	// runs.
	Lookup func(pc uint32) (*ir.Block, error)

	// img is the loaded program image; slots and other hold the
	// blocks this machine has resolved, on the image's instruction
	// slots and elsewhere. A block is decoded from this machine's RAM
	// at its first execution and kept: a later store into code that
	// already ran does not retranslate it.
	img   *ir.Image
	slots []*ir.Block
	other map[uint32]*ir.Block

	taps  []IOTap
	inISR bool
}

// New returns a machine with zeroed RAM attached to bus. The RAM comes
// from the process-wide pool; m.RAM.Free returns it once the machine
// is no longer used.
func New(bus *hw.Bus) *Machine {
	return &Machine{RAM: hw.NewRAM(), Bus: bus}
}

// AddIOTap registers an observer of hardware I/O.
func (m *Machine) AddIOTap(t IOTap) { m.taps = append(m.taps, t) }

func (m *Machine) tapIO(port, write bool, addr uint32, size int, v uint32) {
	for _, t := range m.taps {
		t(port, write, addr, size, v)
	}
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
	m.slots = make([]*ir.Block, img.Slots())
	m.other = nil
	return nil
}

// block returns the block at pc: from Lookup when it is set, else the
// translation block resolved on the machine's first execution of pc.
func (m *Machine) block(pc uint32) (*ir.Block, error) {
	if m.Lookup != nil {
		return m.Lookup(pc)
	}
	if m.img != nil {
		if i, ok := m.img.Slot(pc); ok {
			if b := m.slots[i]; b != nil {
				return b, nil
			}
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
		m.tapIO(false, false, addr, size, v)
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
		m.tapIO(false, true, addr, size, v)
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
	return m.Write(m.Regs[isa.SP], 4, v)
}

// Pop pops the top of the guest stack.
func (m *Machine) Pop() (uint32, error) {
	v, err := m.Read(m.Regs[isa.SP], 4)
	m.Regs[isa.SP] += 4
	return v, err
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
	panic("vm: bad condition")
}

// StepBlock executes one block (or delivers one pending interrupt).
// It returns the block executed, or nil when an interrupt was
// delivered or the machine is halted. Cycles counts the block's
// completed instructions, also when one of them faults.
func (m *Machine) StepBlock() (*ir.Block, error) {
	if m.Halted {
		return nil, nil
	}
	// Interrupt delivery between blocks, like QEMU between TBs.
	if m.IntEnabled && !m.inISR && m.IntVector != 0 && m.Bus.Line.Pending() {
		if err := m.Push(m.PC); err != nil {
			return nil, err
		}
		m.PC = m.IntVector
		m.inISR = true
		return nil, nil
	}
	b, err := m.block(m.PC)
	if err != nil {
		return nil, err
	}
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
		case isa.LD8, isa.LD16, isa.LD32:
			var v uint32
			if v, err = m.Read(regs[in.Rs1]+in.Imm, in.Op.AccessSize()); err == nil {
				regs[in.Rd] = v
			}
		case isa.ST8, isa.ST16, isa.ST32:
			err = m.Write(regs[in.Rs1]+in.Imm, in.Op.AccessSize(), regs[in.Rs2])
		case isa.IN8, isa.IN16, isa.IN32:
			port := regs[in.Rs1] + in.Imm
			v := m.Bus.PortRead(port, in.Op.AccessSize())
			m.tapIO(true, false, port, in.Op.AccessSize(), v)
			regs[in.Rd] = v
		case isa.OUT8, isa.OUT16, isa.OUT32:
			port := regs[in.Rs1] + in.Imm
			v := regs[in.Rs2] & hw.SizeMask(in.Op.AccessSize())
			m.Bus.PortWrite(port, in.Op.AccessSize(), v)
			m.tapIO(true, true, port, in.Op.AccessSize(), v)
		case isa.PUSH:
			err = m.Push(regs[in.Rs1])
		case isa.POP:
			var v uint32
			if v, err = m.Pop(); err == nil {
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
			if condTrue(in.Cond(), regs[in.Rs1], rhs) {
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
			return b, fmt.Errorf("vm: at %#x (%s): %w", b.InstrAddr(i), in.Disassemble(), err)
		}
	}
	m.Cycles += uint64(len(b.Instrs))
	m.PC = next
	return b, nil
}

// Run executes until the machine halts or maxBlocks translation
// blocks have run, whichever is first. It returns the number of
// blocks executed.
func (m *Machine) Run(maxBlocks int) (int, error) {
	n := 0
	for !m.Halted && n < maxBlocks {
		if _, err := m.StepBlock(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
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
