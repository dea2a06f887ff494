package guestos

import (
	"testing"

	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/vm"
)

// miniDriver is a minimal but complete miniport used to test the OS
// model in isolation from the real drivers.
const miniDriver = `
.equ NdisMRegisterMiniport,     0xF00000
.equ NdisAllocateMemory,        0xF00008
.equ NdisReadPciSlotInformation,0xF00030
.equ NdisMIndicateReceivePacket,0xF00048
.equ NdisMSendComplete,         0xF00050
.org 0x10000
.func DriverEntry
	movi r1, chars
	movi r2, mp_init
	st32 [r1+0], r2
	movi r2, mp_send
	st32 [r1+4], r2
	movi r2, mp_isr
	st32 [r1+8], r2
	movi r2, mp_query
	st32 [r1+12], r2
	movi r2, mp_set
	st32 [r1+16], r2
	movi r2, mp_halt
	st32 [r1+20], r2
	push r1
	call NdisMRegisterMiniport
	movi r0, #0
	ret
.func mp_init
	movi r1, #64
	push r1
	call NdisAllocateMemory
	mov  r4, r0
	movi r1, #4
	push r1
	call NdisReadPciSlotInformation
	st32 [r4+0], r0
	mov  r0, r4
	ret
.func mp_send
	ld32 r1, [sp+8]
	ld32 r2, [sp+12]
	push r2
	push r1
	call NdisMIndicateReceivePacket ; echo the frame back up
	movi r0, #0
	ret 12
.func mp_isr
	movi r1, #0
	push r1
	call NdisMSendComplete
	ret 4
.func mp_query
	movi r0, #0
	ret 16
.func mp_set
	movi r0, #0
	ret 16
.func mp_halt
	ret 4
chars:
	.space 24
`

func setup(t *testing.T) (*OS, *vm.Machine, *isa.Program) {
	t.Helper()
	p, err := isa.Assemble(miniDriver)
	if err != nil {
		t.Fatal(err)
	}
	bus := hw.NewBus()
	m := vm.New(bus)
	if err := m.LoadImage(p); err != nil {
		t.Fatal(err)
	}
	os := New(m, hw.PCIConfig{VendorID: 1, DeviceID: 2, IOBase: 0xE000, IOSize: 0x40, IRQLine: 5})
	return os, m, p
}

func TestRegisterMiniportMonitoring(t *testing.T) {
	os, _, p := setup(t)
	if err := os.LoadDriver(p.Base); err != nil {
		t.Fatal(err)
	}
	// The registration call handed over every characteristics entry,
	// and no timer is registered before the driver asks for one.
	want := EntryPoints{
		Init: p.Sym("mp_init"), Send: p.Sym("mp_send"), ISR: p.Sym("mp_isr"),
		Query: p.Sym("mp_query"), Set: p.Sym("mp_set"), Halt: p.Sym("mp_halt"),
	}
	if os.Entries != want {
		t.Fatalf("entry points %+v, want %+v", os.Entries, want)
	}
}

func TestInitializeAndPCI(t *testing.T) {
	os, m, p := setup(t)
	if err := os.LoadDriver(p.Base); err != nil {
		t.Fatal(err)
	}
	if err := os.Initialize(); err != nil {
		t.Fatal(err)
	}
	if os.Ctx == 0 {
		t.Fatal("no context")
	}
	// The driver stored the PCI I/O base in its context.
	if got := m.Read32(os.Ctx); got != 0xE000 {
		t.Errorf("ctx iobase = %#x", got)
	}
}

func TestSendIndicateAndCompletion(t *testing.T) {
	os, _, p := setup(t)
	if err := os.LoadDriver(p.Base); err != nil {
		t.Fatal(err)
	}
	if err := os.Initialize(); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 80)
	for i := range frame {
		frame[i] = byte(i)
	}
	st, err := os.Send(frame)
	if err != nil || st != StatusSuccess {
		t.Fatalf("send: %d %v", st, err)
	}
	// The echo driver indicated the same bytes back.
	if len(os.Received) != 1 || len(os.Received[0]) != 80 || os.Received[0][5] != 5 {
		t.Fatalf("received = %v frames", len(os.Received))
	}
	// Query/Set plumbing.
	if st, _, err := os.Query(OIDMACAddress, 6); err != nil || st != StatusSuccess {
		t.Fatal("query")
	}
	if st, err := os.Set(OIDPacketFilter, []byte{1, 0, 0, 0}); err != nil || st != StatusSuccess {
		t.Fatal("set")
	}
	if err := os.Halt(); err != nil {
		t.Fatal(err)
	}
}

func TestDMAAllocationRegistersRegion(t *testing.T) {
	os, m, _ := setup(t)
	// Drive the API directly through a stub call.
	p, err := isa.Assemble(`
.equ NdisMAllocateSharedMemory, 0xF00018
.org 0x20000
.func f
	movi r1, #256
	push r1
	call NdisMAllocateSharedMemory
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadImage(p); err != nil {
		t.Fatal(err)
	}
	addr, err := m.CallEntry(p.Sym("f"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 || !m.Bus.DMA.Contains(addr) || !m.Bus.DMA.Contains(addr+255) {
		t.Errorf("DMA region not registered at %#x", addr)
	}
	_ = os
}

func TestAPIDescriptorsComplete(t *testing.T) {
	for i, d := range Table {
		if d.Name == "" {
			t.Errorf("API %d has no name", i)
		}
		if d.NArgs < 0 || d.NArgs > maxArgs {
			t.Errorf("API %s NArgs = %d", d.Name, d.NArgs)
		}
	}
	// The skip-list kinds the exploration heuristics rely on.
	if Table[APIWriteErrorLogEntry].Kind != KindSkippable || Table[APIDebugPrint].Kind != KindSkippable {
		t.Error("log functions must be skippable")
	}
	if Table[APIAllocateSharedMemory].Kind != KindDMAAlloc {
		t.Error("shared memory must be DMA-alloc kind")
	}
	if Table[APIRegisterMiniport].Kind != KindRegister || Table[APIInitializeTimer].Kind != KindRegister {
		t.Error("registration APIs must be monitored")
	}
}

func TestUnknownAPIFaults(t *testing.T) {
	os, m, _ := setup(t)
	_ = os
	p, _ := isa.Assemble(".org 0x20000\n.func f\ncall 0xF07000\nret\n")
	m.LoadImage(p)
	if _, err := m.CallEntry(p.Sym("f"), 100); err == nil {
		t.Error("unknown API index should fault")
	}
}
