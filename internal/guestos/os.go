package guestos

import (
	"fmt"

	"revnic/internal/hw"
	"revnic/internal/vm"
)

// EntryPoints are the driver entry points discovered by monitoring
// NdisMRegisterMiniport, "since these structures contain actual
// function pointers and have documented member variables" (§3.2).
type EntryPoints struct {
	Init  uint32
	Send  uint32
	ISR   uint32
	Query uint32
	Set   uint32
	Halt  uint32
	// Timer is registered separately at run time via
	// NdisMInitializeTimer, as the paper describes.
	Timer uint32
}

// Registered reports whether the mandatory entry points are present.
func (e EntryPoints) Registered() bool {
	return e.Init != 0 && e.Send != 0 && e.ISR != 0 && e.Halt != 0
}

// heapBase is where the OS heap lives in guest RAM; allocations grow
// upward, DMA allocations are carved from the same region but also
// registered with the bus DMA registry.
const heapBase = 0x00080000

// OS is the concrete guest operating system instance wrapped around
// one driver.
type OS struct {
	M   *vm.Machine
	Cfg hw.PCIConfig

	Entries EntryPoints
	Ctx     uint32 // adapter context returned by Initialize

	// Received collects frames the driver indicated up the stack.
	Received [][]byte
	// SendCompletes counts NdisMSendComplete upcalls.
	SendCompletes int
	// Uptime is the value returned by NdisGetSystemUpTime; tests and
	// the exerciser advance it.
	Uptime uint32

	heapNext uint32
}

// New wires an OS model to a machine and the PCI config of the NIC
// being driven (the parameters the developer feeds RevNIC).
func New(m *vm.Machine, cfg hw.PCIConfig) *OS {
	os := &OS{M: m, Cfg: cfg, heapNext: heapBase}
	m.OSCall = os.handleAPI
	return os
}

// Alloc carves n bytes (8-byte aligned) from the OS heap.
func (os *OS) Alloc(n uint32) uint32 {
	n = (n + 7) &^ 7
	if os.heapNext+n >= hw.StackTop {
		return 0
	}
	a := os.heapNext
	os.heapNext += n
	return a
}

func (os *OS) handleAPI(m *vm.Machine, index uint32) error {
	if index >= NumAPIs {
		return fmt.Errorf("guestos: call to unknown API index %d", index)
	}
	d := Table[index]
	var args [maxArgs]uint32
	for i := range d.NArgs {
		args[i] = m.Arg(i)
	}
	ret := uint32(StatusSuccess)
	switch index {
	case APIRegisterMiniport:
		p := args[0]
		os.Entries.Init = m.Read32(p + CharInit)
		os.Entries.Send = m.Read32(p + CharSend)
		os.Entries.ISR = m.Read32(p + CharISR)
		os.Entries.Query = m.Read32(p + CharQuery)
		os.Entries.Set = m.Read32(p + CharSet)
		os.Entries.Halt = m.Read32(p + CharHalt)
	case APIAllocateMemory:
		ret = os.Alloc(args[0])
	case APIFreeMemory, APIFreeSharedMemory:
		if index == APIFreeSharedMemory {
			os.M.Bus.DMA.Unregister(args[0])
		}
	case APIAllocateSharedMemory:
		ret = os.Alloc(args[0])
		if ret != 0 {
			// The returned physical address is communicated to the
			// DMA registry, as §3.4 requires.
			os.M.Bus.DMA.Register(ret, args[0])
		}
	case APIWriteErrorLogEntry, APIDebugPrint:
		// Irrelevant to the hardware protocol.
	case APIReadPCIConfig:
		switch args[0] {
		case PCICfgID:
			ret = uint32(os.Cfg.VendorID) | uint32(os.Cfg.DeviceID)<<16
		case PCICfgIOBase:
			ret = os.Cfg.IOBase
		case PCICfgIRQ:
			ret = uint32(os.Cfg.IRQLine)
		default:
			ret = 0
		}
	case APIInitializeTimer:
		os.Entries.Timer = args[0]
	case APISetTimer:
		// The exerciser fires timers explicitly.
	case APIIndicateReceive:
		buf, n := args[0], args[1]
		frame := make([]byte, n)
		os.M.ReadMem(buf, frame)
		os.Received = append(os.Received, frame)
	case APISendComplete:
		os.SendCompletes++
	case APIStallExecution:
		os.Uptime += args[0] / 1000
	case APIGetSystemUpTime:
		ret = os.Uptime
	}
	return m.APIReturn(ret, d.NArgs)
}

// entryBudget bounds translation blocks per entry-point invocation.
const entryBudget = 200000

// LoadDriver invokes the driver's load entry (DriverEntry), which is
// expected to register the miniport.
func (os *OS) LoadDriver(entry uint32) error {
	if _, err := os.M.CallEntry(entry, entryBudget); err != nil {
		return fmt.Errorf("guestos: DriverEntry: %w", err)
	}
	if !os.Entries.Registered() {
		return fmt.Errorf("guestos: driver did not register mandatory entry points: %+v", os.Entries)
	}
	return nil
}

// Initialize invokes MiniportInitialize; the returned adapter context
// is saved and passed to every later entry point. A zero context
// means initialization failed.
func (os *OS) Initialize() error {
	ctx, err := os.M.CallEntry(os.Entries.Init, entryBudget)
	if err != nil {
		return fmt.Errorf("guestos: Initialize: %w", err)
	}
	if ctx == 0 {
		return fmt.Errorf("guestos: Initialize reported failure")
	}
	os.Ctx = ctx
	return nil
}

// Send hands one frame to the driver's send entry point.
func (os *OS) Send(frame []byte) (uint32, error) {
	buf := os.Alloc(uint32(len(frame)))
	if buf == 0 {
		return StatusFailure, fmt.Errorf("guestos: out of heap")
	}
	os.M.WriteMem(buf, frame)
	return os.M.CallEntry(os.Entries.Send, entryBudget, os.Ctx, buf, uint32(len(frame)))
}

// Query invokes MiniportQueryInformation for an OID with an out
// buffer of n bytes, returning the buffer contents.
func (os *OS) Query(oid uint32, n uint32) (uint32, []byte, error) {
	buf := os.Alloc(n)
	st, err := os.M.CallEntry(os.Entries.Query, entryBudget, os.Ctx, oid, buf, n)
	if err != nil {
		return StatusFailure, nil, err
	}
	out := make([]byte, n)
	os.M.ReadMem(buf, out)
	return st, out, nil
}

// Set invokes MiniportSetInformation for an OID with the given input
// buffer.
func (os *OS) Set(oid uint32, in []byte) (uint32, error) {
	buf := os.Alloc(uint32(len(in)))
	os.M.WriteMem(buf, in)
	return os.M.CallEntry(os.Entries.Set, entryBudget, os.Ctx, oid, buf, uint32(len(in)))
}

// PumpInterrupts calls the driver ISR while the interrupt line is
// pending, up to max invocations (level-triggered semantics: the ISR
// must ack the device to deassert). It returns how many times the
// ISR ran. This is how the OS-side kernel dispatches interrupts to
// the miniport, and it runs after entry points return — the moment
// RevNIC's interrupt-injection heuristic identifies (§3.2).
func (os *OS) PumpInterrupts(max int) (int, error) {
	n := 0
	for os.M.Bus.Line.Pending() && n < max {
		if _, err := os.M.CallEntry(os.Entries.ISR, entryBudget, os.Ctx); err != nil {
			return n, fmt.Errorf("guestos: ISR: %w", err)
		}
		n++
	}
	if os.M.Bus.Line.Pending() {
		return n, fmt.Errorf("guestos: interrupt line still pending after %d ISR calls", n)
	}
	return n, nil
}

// FireTimer invokes the registered timer handler once, if any.
func (os *OS) FireTimer() error {
	if os.Entries.Timer == 0 {
		return nil
	}
	_, err := os.M.CallEntry(os.Entries.Timer, entryBudget, os.Ctx)
	return err
}

// Halt invokes MiniportHalt.
func (os *OS) Halt() error {
	_, err := os.M.CallEntry(os.Entries.Halt, entryBudget, os.Ctx)
	return err
}
