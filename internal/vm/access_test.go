package vm

import (
	"fmt"
	"strings"
	"testing"

	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/isa"
)

// accessSrc has one function per memory instruction, each starting
// with it: the address is r1 (the stack pointer for push and pop),
// the value to store r2.
const accessSrc = `
.org 0x1000
.func ld8
	ld8  r0, [r1+0]
	ret
.func ld16
	ld16 r0, [r1+0]
	ret
.func ld32
	ld32 r0, [r1+0]
	ret
.func st8
	st8  [r1+0], r2
	ret
.func st16
	st16 [r1+0], r2
	ret
.func st32
	st32 [r1+0], r2
	ret
.func pushpop
	mov  r3, sp
	mov  sp, r1
	push r2
	pop  r0
	mov  sp, r3
	ret
`

// access runs the function fn of accessSrc with r1 = addr and
// r2 = 0x11223344 on a machine with a 16-byte MMIO device at
// hw.MMIOBase. The last four RAM bytes hold 01 02 03 04 before the
// call.
func access(t *testing.T, fn string, addr uint32) (*Machine, uint32, error) {
	t.Helper()
	p := assemble(t, accessSrc)
	bus := hw.NewBus()
	bus.Attach(&mmioDev{}, hw.PCIConfig{MMIOAddr: hw.MMIOBase, MMIOSize: 0x100})
	m := New(bus)
	t.Cleanup(m.RAM.Free)
	if err := m.LoadImage(p); err != nil {
		t.Fatal(err)
	}
	m.WriteMem(hw.RAMSize-4, []byte{1, 2, 3, 4})
	m.Regs[isa.R1], m.Regs[isa.R2] = addr, 0x11223344
	r0, err := m.CallEntry(p.Sym(fn), 10)
	return m, r0, err
}

// faultText is the error a memory instruction at the entry of fn
// faults with at addr.
func faultText(t *testing.T, m *Machine, fn string, addr uint32) string {
	t.Helper()
	p := assemble(t, accessSrc)
	in, err := m.FetchInstr(p.Sym(fn))
	if err != nil {
		t.Fatal(err)
	}
	dir := "read"
	if in.Op == isa.ST8 || in.Op == isa.ST16 || in.Op == isa.ST32 {
		dir = "write"
	}
	return fmt.Sprintf("vm: at %#x (%s): vm: memory %s outside RAM at %#x", p.Sym(fn), in.Disassemble(), dir, addr)
}

// TestAccessAtRAMEnd runs loads and stores of every width that end
// exactly at hw.RAMSize, which must reach RAM, and ones that end one
// byte past it, which must fault with the text of the slow path.
func TestAccessAtRAMEnd(t *testing.T) {
	for _, c := range []struct {
		fn   string
		size uint32
		load uint32 // r0 after a load ending at RAMSize
	}{
		{"ld8", 1, 0x04}, {"ld16", 2, 0x0403}, {"ld32", 4, 0x04030201},
		{"st8", 1, 0}, {"st16", 2, 0}, {"st32", 4, 0},
	} {
		at := uint32(hw.RAMSize) - c.size
		m, r0, err := access(t, c.fn, at)
		if err != nil {
			t.Errorf("%s ending at RAMSize: %v", c.fn, err)
			continue
		}
		if strings.HasPrefix(c.fn, "ld") && r0 != c.load {
			t.Errorf("%s at %#x = %#x, want %#x", c.fn, at, r0, c.load)
		}
		if strings.HasPrefix(c.fn, "st") {
			want := uint32(0x11223344) & hw.SizeMask(int(c.size))
			if v, _ := m.RAM.Load(at, int(c.size)); v != want {
				t.Errorf("%s at %#x stored %#x, want %#x", c.fn, at, v, want)
			}
		}

		m, _, err = access(t, c.fn, at+1)
		if want := faultText(t, m, c.fn, at+1); err == nil || err.Error() != want {
			t.Errorf("%s one byte past RAMSize: err = %v, want %q", c.fn, err, want)
		}
	}
}

// TestPushPopAtRAMEnd pushes and pops a word at the last four bytes of
// RAM, then with the stack one byte higher, where the push faults.
func TestPushPopAtRAMEnd(t *testing.T) {
	if _, r0, err := access(t, "pushpop", hw.RAMSize); err != nil || r0 != 0x11223344 {
		t.Errorf("push/pop at the RAM end: r0 = %#x, err = %v", r0, err)
	}
	_, _, err := access(t, "pushpop", hw.RAMSize+1)
	want := fmt.Sprintf("vm: at %#x (push r2): vm: memory write outside RAM at %#x",
		assemble(t, accessSrc).Sym("pushpop")+2*isa.InstrSize, hw.RAMSize-3)
	if err == nil || err.Error() != want {
		t.Errorf("push past the RAM end: err = %v, want %q", err, want)
	}
}

// TestAccessAtMMIOBoundary checks both sides of hw.MMIOBase: the byte
// below it is neither RAM nor MMIO and faults, the byte at it goes to
// the device and into the trace.
func TestAccessAtMMIOBoundary(t *testing.T) {
	for _, fn := range []string{"ld8", "ld32", "st8", "st32"} {
		m, _, err := access(t, fn, hw.MMIOBase-1)
		if want := faultText(t, m, fn, hw.MMIOBase-1); err == nil || err.Error() != want {
			t.Errorf("%s at MMIOBase-1: err = %v, want %q", fn, err, want)
		}
		if len(m.Trace) != 0 {
			t.Errorf("%s at MMIOBase-1 reached the bus: %+v", fn, m.Trace)
		}
	}
	m, _, err := access(t, "st32", hw.MMIOBase)
	if err != nil {
		t.Fatal(err)
	}
	want := IOEvent{Write: true, Addr: hw.MMIOBase, Size: 4, Value: 0x11223344}
	if len(m.Trace) != 1 || m.Trace[0] != want {
		t.Errorf("st32 at MMIOBase traced %+v, want %+v", m.Trace, want)
	}
	m, r0, err := access(t, "ld16", hw.MMIOBase)
	if err != nil {
		t.Fatal(err)
	}
	if want := (IOEvent{Addr: hw.MMIOBase, Size: 2}); r0 != 0 || len(m.Trace) != 1 || m.Trace[0] != want {
		t.Errorf("ld16 at MMIOBase: r0 = %#x, traced %+v, want %+v", r0, m.Trace, want)
	}
}

// TestStraddlingStoresAreFreed stores across two page boundaries, a
// word and a halfword, and checks that Free zeroes every page they
// touched: the buffer it returns to the pool is all zero.
func TestStraddlingStoresAreFreed(t *testing.T) {
	// Hold every pooled buffer, so the machine gets a fresh one and
	// the next NewRAM returns exactly the buffer it freed.
	var held []*hw.RAM
	for hw.PooledRAM() > 0 {
		held = append(held, hw.NewRAM())
	}
	defer func() {
		for _, r := range held {
			r.Free()
		}
	}()
	m, _, err := access(t, "st32", 3*hw.PageSize-2)
	if err != nil {
		t.Fatal(err)
	}
	m.Regs[isa.R1] = 5*hw.PageSize - 1
	if _, err := m.CallEntry(assemble(t, accessSrc).Sym("st16"), 10); err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint32{3*hw.PageSize - 2, 5*hw.PageSize - 1} {
		if v, _ := m.RAM.Load(a, 2); v == 0 {
			t.Fatalf("no store at %#x", a)
		}
	}
	m.RAM.Free()
	r := hw.NewRAM()
	defer r.Free()
	buf := make([]byte, hw.RAMSize)
	r.ReadMem(0, buf)
	for i, c := range buf {
		if c != 0 {
			t.Fatalf("recycled RAM has byte %#x at %#x", c, i)
		}
	}
}

// TestRewrittenBlockRunsOwnBytes: a machine whose RAM is rewritten
// before a block first runs executes the rewritten bytes, although
// another machine already put the image's block into the shared slot
// table; once the block has run, a later rewrite does not retranslate
// it.
func TestRewrittenBlockRunsOwnBytes(t *testing.T) {
	p := assemble(t, `
.org 0x1000
.func target
	movi r0, #1
	ret
`)
	img := ir.NewImage(p)
	first := loaded(t, img)
	if got, err := first.CallEntry(p.Sym("target"), 10); err != nil || got != 1 {
		t.Fatalf("first machine: r0 = %d, err = %v", got, err)
	}
	m := loaded(t, img)
	patch := func(v uint32) {
		in := isa.Instr{Op: isa.MOVI, Rd: isa.R0, Imm: v}
		m.WriteMem(p.Sym("target"), in.Encode(nil))
	}
	patch(2)
	if got, err := m.CallEntry(p.Sym("target"), 10); err != nil || got != 2 {
		t.Errorf("rewritten before its first run: r0 = %d, err = %v, want 2", got, err)
	}
	patch(3)
	if got, err := m.CallEntry(p.Sym("target"), 10); err != nil || got != 2 {
		t.Errorf("rewritten after it ran: r0 = %d, err = %v, want the kept block's 2", got, err)
	}
}

// TestPushPopStackPointer pins the operand order of the inline push
// and pop: push sp stores the stack pointer from before the push, and
// pop sp leaves the popped value in sp, not that value plus 4.
func TestPushPopStackPointer(t *testing.T) {
	m, p := setup(t, `
.org 0x1000
.func pushsp
	push sp
	pop  r0
	ret
.func popsp
	mov  r3, sp
	movi r1, #0x1234
	push r1
	pop  sp
	mov  r0, sp
	mov  sp, r3
	ret
`)
	if got, err := m.CallEntry(p.Sym("pushsp"), 10); err != nil || got != hw.StackTop-4 {
		t.Errorf("push sp stored %#x (err %v), want the stack pointer before the push %#x", got, err, hw.StackTop-4)
	}
	if got, err := m.CallEntry(p.Sym("popsp"), 10); err != nil || got != 0x1234 {
		t.Errorf("pop sp left %#x (err %v), want 0x1234", got, err)
	}
}
