package vm

import (
	"slices"
	"testing"

	"revnic/internal/hw"
	"revnic/internal/isa"
)

func setup(t *testing.T, src string) (*Machine, *isa.Program) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(hw.NewBus())
	if err := m.LoadImage(p); err != nil {
		t.Fatal(err)
	}
	return m, p
}

func TestArithmeticAndMemory(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
entry:
	movi r1, #10
	movi r2, #3
	sub  r3, r1, r2   ; 7
	mul  r3, r3, r3   ; 49
	movi r4, scratch
	st32 [r4+0], r3
	ld32 r0, [r4+0]
	ret
scratch:
	.word 0
`)
	got, err := m.CallEntry(p.Sym("entry"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 49 {
		t.Errorf("r0 = %d, want 49", got)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..n with n passed on the stack (stdcall).
	m, p := setup(t, `
.org 0x1000
.func sum
	ld32 r1, [sp+4]   ; n
	movi r0, #0
	movi r2, #0
loop:
	bgeu r2, r1, done
	add  r2, r2, #1
	add  r0, r0, r2
	jmp  loop
done:
	ret 4
`)
	got, err := m.CallEntry(p.Sym("sum"), 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Errorf("sum(10) = %d, want 55", got)
	}
}

func TestSignedBranches(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func isneg
	ld32 r1, [sp+4]
	movi r2, #0
	blt  r1, r2, neg
	movi r0, #0
	ret 4
neg:
	movi r0, #1
	ret 4
`)
	if got, _ := m.CallEntry(p.Sym("isneg"), 100, 0xFFFFFFFF); got != 1 {
		t.Errorf("isneg(-1) = %d", got)
	}
	if got, _ := m.CallEntry(p.Sym("isneg"), 100, 5); got != 0 {
		t.Errorf("isneg(5) = %d", got)
	}
}

func TestNestedCallsStdcall(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func caller
	movi r1, #6
	push r1
	movi r1, #7
	push r1
	call mulfn        ; mulfn(7, 6)
	ret
.func mulfn
	ld32 r1, [sp+4]
	ld32 r2, [sp+8]
	mul  r0, r1, r2
	ret 8             ; callee pops both args
`)
	got, err := m.CallEntry(p.Sym("caller"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("caller = %d, want 42", got)
	}
	// Stack must balance: SP back to the pre-call value.
	if m.Regs[isa.SP] != hw.StackTop {
		t.Errorf("SP = %#x, want %#x", m.Regs[isa.SP], hw.StackTop)
	}
}

func TestIndirectJumpTable(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func dispatch
	ld32 r1, [sp+4]      ; selector 0..2
	movi r2, table
	shl  r3, r1, #2
	add  r2, r2, r3
	ld32 r2, [r2+0]
	jr   r2
case0: movi r0, #100
	ret 4
case1: movi r0, #200
	ret 4
case2: movi r0, #300
	ret 4
.align 4
table:
	.word case0, case1, case2
`)
	for i, want := range []uint32{100, 200, 300} {
		got, err := m.CallEntry(p.Sym("dispatch"), 100, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("dispatch(%d) = %d, want %d", i, got, want)
		}
	}
}

// portDev is a tiny device: reg 0 holds a value, reg 4 adds to it.
type portDev struct {
	hw.NopDevice
	val uint32
}

func (d *portDev) PortRead(off uint32, size int) uint32 { return d.val }
func (d *portDev) PortWrite(off uint32, size int, v uint32) {
	if off == 4 {
		d.val += v
	} else {
		d.val = v
	}
}

func TestPortIOAndTrace(t *testing.T) {
	p, err := isa.Assemble(`
.org 0x1000
.func f
	movi r1, #0x300
	movi r2, #5
	out32 (r1+0), r2
	out32 (r1+4), r2
	in32  r0, (r1+0)
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	bus := hw.NewBus()
	dev := &portDev{}
	bus.Attach(dev, hw.PCIConfig{IOBase: 0x300, IOSize: 0x10})
	m := New(bus)
	m.LoadImage(p)
	got, err := m.CallEntry(p.Sym("f"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("r0 = %d, want 10", got)
	}
	want := []IOEvent{
		{Port: true, Write: true, Addr: 0x300, Size: 4, Value: 5},
		{Port: true, Write: true, Addr: 0x304, Size: 4, Value: 5},
		{Port: true, Addr: 0x300, Size: 4, Value: 10},
	}
	if !slices.Equal(m.Trace, want) {
		t.Errorf("trace = %+v, want %+v", m.Trace, want)
	}
}

func TestMMIOAccess(t *testing.T) {
	p, _ := isa.Assemble(`
.org 0x1000
.func f
	movi r1, #0
	sub  r1, r1, #0x30000000  ; r1 = 0xD0000000
	movi r2, #0x77
	st32 [r1+8], r2           ; MMIO write
	ld32 r0, [r1+8]           ; MMIO read
	ret
`)
	bus := hw.NewBus()
	dev := &mmioDev{}
	bus.Attach(dev, hw.PCIConfig{MMIOAddr: hw.MMIOBase, MMIOSize: 0x100})
	m := New(bus)
	m.LoadImage(p)
	got, err := m.CallEntry(p.Sym("f"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x77 {
		t.Errorf("MMIO round trip = %#x", got)
	}
	want := []IOEvent{
		{Write: true, Addr: hw.MMIOBase + 8, Size: 4, Value: 0x77},
		{Addr: hw.MMIOBase + 8, Size: 4, Value: 0x77},
	}
	if !slices.Equal(m.Trace, want) {
		t.Errorf("trace = %+v, want %+v", m.Trace, want)
	}
}

type mmioDev struct {
	hw.NopDevice
	regs [64]uint32
}

func (d *mmioDev) MMIORead(off uint32, size int) uint32     { return d.regs[off/4] }
func (d *mmioDev) MMIOWrite(off uint32, size int, v uint32) { d.regs[off/4] = v }

func TestOSCallGate(t *testing.T) {
	p, err := isa.Assemble(`
.org 0x1000
.equ API_MAGIC, 0xF00018   ; gate index 3
.func f
	movi r1, #41
	push r1
	call API_MAGIC    ; OS call with one arg
	add  r0, r0, #100
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(hw.NewBus())
	m.LoadImage(p)
	var gotIndex, gotArg uint32
	m.OSCall = func(mm *Machine, index uint32) error {
		gotIndex = index
		gotArg = mm.Arg(0)
		return mm.APIReturn(gotArg+1, 1)
	}
	got, err := m.CallEntry(p.Sym("f"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if gotIndex != 3 || gotArg != 41 {
		t.Errorf("index=%d arg=%d", gotIndex, gotArg)
	}
	if got != 142 {
		t.Errorf("result = %d, want 142", got)
	}
	if m.Regs[isa.SP] != hw.StackTop {
		t.Errorf("stack imbalance after API call: %#x", m.Regs[isa.SP])
	}
}

// ackDev deasserts the shared interrupt line when its status port is
// read, like a NIC interrupt-status register with read-to-ack.
type ackDev struct {
	hw.NopDevice
	line *hw.IRQLine
}

func (d *ackDev) PortRead(off uint32, size int) uint32 {
	d.line.Deassert()
	return 1
}

func TestInterruptDeliveryAndService(t *testing.T) {
	p, _ := isa.Assemble(`
.org 0x1000
.func isr
	push r1
	movi r1, #0x320
	in32 r2, (r1+0)      ; ack the device, deasserting the line
	movi r1, flagvar
	movi r2, #1
	st32 [r1+0], r2
	pop r1
	iret
.func idle
	movi r3, #0
spin:
	add r3, r3, #1
	movi r4, #100
	bltu r3, r4, spin
	ret
flagvar:
	.word 0
`)
	bus := hw.NewBus()
	bus.Attach(&ackDev{line: &bus.Line}, hw.PCIConfig{IOBase: 0x320, IOSize: 4})
	m := New(bus)
	m.LoadImage(p)
	m.IntVector = p.Sym("isr")
	m.IntEnabled = true

	// Interrupt while running: assert the line, then run idle loop.
	bus.Line.Assert()
	if _, err := m.CallEntry(p.Sym("idle"), 1000); err != nil {
		t.Fatal(err)
	}
	if m.Read32(p.Sym("flagvar")) != 1 {
		t.Error("ISR did not run during execution")
	}
	if m.InISR() {
		t.Error("stuck in ISR")
	}

	// ServiceInterrupt while idle.
	m.Write32(p.Sym("flagvar"), 0)
	bus.Line.Clear()
	ran, err := m.ServiceInterrupt(100)
	if err != nil || ran {
		t.Fatalf("no IRQ pending: ran=%v err=%v", ran, err)
	}
	bus.Line.Assert()
	ran, err = m.ServiceInterrupt(100)
	if err != nil || !ran {
		t.Fatalf("ran=%v err=%v", ran, err)
	}
	if m.Read32(p.Sym("flagvar")) != 1 {
		t.Error("ISR did not run from idle")
	}
}

func TestFaults(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func bad
	movi r1, #0
	sub  r1, r1, #4
	ld32 r0, [r1+0]   ; read at 0xFFFFFFFC: outside RAM, below MMIO? no: IsMMIO, so routed to bus
	ret
.func badjump
	movi r1, #0x00500000
	jr   r1           ; fetch outside RAM
`)
	// 0xFFFFFFFC is MMIO space (>= 0xD0000000) so it reads open bus.
	if got, err := m.CallEntry(p.Sym("bad"), 100); err != nil || got != 0xFFFFFFFF {
		t.Errorf("MMIO open bus: got %#x err %v", got, err)
	}
	if _, err := m.CallEntry(p.Sym("badjump"), 100); err == nil {
		t.Error("fetch outside RAM should fault")
	}
	// Entry that never completes must report block-budget exhaustion.
	m2, p2 := setup(t, ".org 0x1000\n.func spin\njmp spin")
	if _, err := m2.CallEntry(p2.Sym("spin"), 50); err == nil {
		t.Error("runaway entry should error")
	}
}

func TestCallEntryWithoutHandlerFaults(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func f
	call 0xF00000
	ret
`)
	if _, err := m.CallEntry(p.Sym("f"), 100); err == nil {
		t.Error("API call without handler must fault")
	}
}

// TestUndecodableInstructionIsAnError runs images whose branch carries
// an out-of-range condition code or register: the fetch fails to
// decode and the call returns an error instead of panicking in
// isa.Cond.Holds or indexing past the register file.
func TestUndecodableInstructionIsAnError(t *testing.T) {
	for _, in := range []isa.Instr{
		{Op: isa.BR, Rd: 6, Rs1: isa.R0, Rs2: isa.R1, Imm: 0x1000},
		{Op: isa.BRI, Rd: 0x30, Rs1: isa.R0, Rs2: 1, Imm: 0x1000},
		{Op: isa.BR, Rd: isa.Reg(isa.EQ), Rs1: 0x30, Rs2: isa.R1, Imm: 0x1000},
	} {
		m := New(hw.NewBus())
		if err := m.LoadImage(&isa.Program{Base: 0x1000, Code: in.Encode(nil)}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.CallEntry(0x1000, 10); err == nil {
			t.Errorf("%+v: call succeeded", in)
		}
	}
}

// TestMidBlockFaultAccounting pins what a fault in the middle of a
// block leaves behind: the block counts as run, only the instructions
// before the faulting one count as cycles, and the error names the
// faulting instruction.
func TestMidBlockFaultAccounting(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func f
	movi r1, #0x500000
	add  r2, r2, #1
	ld32 r0, [r1+0]   ; outside RAM, below MMIO
	ret
`)
	m.PC = p.Sym("f")
	_, err := m.StepBlock()
	want := "vm: at 0x1010 (ld32 r0, [r1+0x0]): vm: memory read outside RAM at 0x500000"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if m.Cycles != 2 || m.Blocks != 1 {
		t.Errorf("Cycles = %d, Blocks = %d, want 2 and 1", m.Cycles, m.Blocks)
	}
}

// TestOSCallSeesGatePC checks that an OS call handler runs with the PC
// at the gate it was called through.
func TestOSCallSeesGatePC(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func f
	call 0xF00010
	ret
`)
	var pc uint32
	m.OSCall = func(mm *Machine, index uint32) error {
		pc = mm.PC
		return mm.APIReturn(0, 0)
	}
	if _, err := m.CallEntry(p.Sym("f"), 100); err != nil {
		t.Fatal(err)
	}
	if pc != 0xF00010 {
		t.Errorf("handler saw PC %#x, want the gate 0xf00010", pc)
	}
}
