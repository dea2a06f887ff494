// Package hw models the hardware side of the guest machine: the I/O
// bus with port and memory-mapped spaces, PCI configuration space
// descriptors, the shared interrupt line, the DMA region registry, and
// guest RAM (recycled through a process-wide pool).
//
// Two kinds of devices plug into the bus. During normal (concrete)
// execution the behavioural NIC models of package nic respond to I/O.
// During reverse engineering, RevNIC instead attaches a "shell"
// device (§3.4 of the paper): a PCI descriptor with no behaviour whose
// reads are answered with fresh symbolic values by the symbolic
// execution engine.
package hw

import "fmt"

// Memory-map constants of the guest machine.
const (
	// RAMSize is the size of guest physical memory.
	RAMSize = 1 << 20
	// StackTop is the initial stack pointer.
	StackTop = 0x000E0000
	// DriverBase is the load address for driver images.
	DriverBase = 0x00010000
	// APIBase is the start of the OS API call-gate region. Calls into
	// this region are intercepted by the OS model rather than
	// executed; each gate is APIGateSize bytes.
	APIBase = 0x00F00000
	// APIGateSize is the stride between API call gates.
	APIGateSize = 8
	// MMIOBase is the lowest memory-mapped I/O address; loads and
	// stores at or above it are routed to the bus.
	MMIOBase = 0xD0000000
)

// IsMMIO reports whether a memory access at addr is device I/O rather
// than RAM. This is the check that is "notoriously difficult to do
// statically on architectures like x86" (§2) and trivial for the VM.
func IsMMIO(addr uint32) bool { return addr >= MMIOBase }

// IsAPIGate reports whether a call target is an OS API gate.
func IsAPIGate(addr uint32) bool {
	return addr >= APIBase && addr < MMIOBase
}

// APIIndex returns the API function index of a gate address.
func APIIndex(addr uint32) uint32 { return (addr - APIBase) / APIGateSize }

// APIGate returns the gate address of an API function index.
func APIGate(index uint32) uint32 { return APIBase + index*APIGateSize }

// PCIConfig is the PCI configuration-space descriptor of a device:
// exactly the parameters the RevNIC user obtains "from the Windows
// device manager and passes on the command line" (§3.4).
type PCIConfig struct {
	VendorID uint16
	DeviceID uint16
	// IOBase/IOSize describe the port I/O window.
	IOBase uint32
	IOSize uint32
	// MMIOAddr/MMIOSize describe the memory-mapped window (zero if
	// the device is port-only).
	MMIOAddr uint32
	MMIOSize uint32
	// IRQLine is the interrupt line number reported to the OS.
	IRQLine uint8
}

// ContainsPort reports whether the port is inside the I/O window.
func (c PCIConfig) ContainsPort(port uint32) bool {
	return port >= c.IOBase && port < c.IOBase+c.IOSize
}

// ContainsMMIO reports whether the address is inside the MMIO window.
func (c PCIConfig) ContainsMMIO(addr uint32) bool {
	return c.MMIOSize != 0 && addr >= c.MMIOAddr && addr < c.MMIOAddr+c.MMIOSize
}

// Device is the behavioural interface of an I/O device. Offsets are
// relative to the device's I/O or MMIO window base.
type Device interface {
	// Name identifies the device in traces.
	Name() string
	// Reset returns the device to power-on state.
	Reset()
	// PortRead reads size bytes (1, 2 or 4) at the window offset.
	PortRead(off uint32, size int) uint32
	// PortWrite writes size bytes at the window offset.
	PortWrite(off uint32, size int, v uint32)
	// MMIORead reads from the MMIO window.
	MMIORead(off uint32, size int) uint32
	// MMIOWrite writes to the MMIO window.
	MMIOWrite(off uint32, size int, v uint32)
	// Tick advances device time by one step, letting it complete
	// pending operations (transmits, receptions, timers).
	Tick()
}

// IRQLine is a shared level-triggered interrupt line. Devices assert
// and deassert it; the CPU polls Pending between instructions.
type IRQLine struct {
	asserted int
}

// Assert raises the line (counting, so multiple devices can share it).
func (l *IRQLine) Assert() { l.asserted++ }

// Deassert lowers one assertion of the line.
func (l *IRQLine) Deassert() {
	if l.asserted > 0 {
		l.asserted--
	}
}

// Clear removes all assertions.
func (l *IRQLine) Clear() { l.asserted = 0 }

// Pending reports whether any device is asserting the line.
func (l *IRQLine) Pending() bool { return l.asserted > 0 }

// DMARegistry tracks the physical memory regions the OS has handed to
// the driver for device DMA. RevNIC "detects DMA memory regions by
// tracking calls to the DMA API and communicating the returned
// physical addresses to the shell device, which returns symbolic
// values upon reads from these regions" (§3.4).
type DMARegistry struct {
	regions []dmaRegion
}

type dmaRegion struct {
	addr, size uint32
}

// Register records a DMA-capable region.
func (d *DMARegistry) Register(addr, size uint32) {
	d.regions = append(d.regions, dmaRegion{addr, size})
}

// Unregister removes a previously registered region.
func (d *DMARegistry) Unregister(addr uint32) {
	for i, r := range d.regions {
		if r.addr == addr {
			d.regions = append(d.regions[:i], d.regions[i+1:]...)
			return
		}
	}
}

// Clone returns an independent copy of the registry. Exploration
// workers start from a clone of the shared registry so concurrent
// registrations never alias.
func (d *DMARegistry) Clone() DMARegistry {
	return DMARegistry{regions: append([]dmaRegion(nil), d.regions...)}
}

// Merge adds o's regions not already present (same address and size)
// in registration order, so merging worker registries in a fixed
// order yields a deterministic combined registry.
func (d *DMARegistry) Merge(o *DMARegistry) {
	for _, r := range o.regions {
		dup := false
		for _, have := range d.regions {
			if have == r {
				dup = true
				break
			}
		}
		if !dup {
			d.regions = append(d.regions, r)
		}
	}
}

// Contains reports whether addr lies in any registered DMA region.
func (d *DMARegistry) Contains(addr uint32) bool {
	for _, r := range d.regions {
		if addr >= r.addr && addr < r.addr+r.size {
			return true
		}
	}
	return false
}

// Regions returns a copy of the registered (addr, size) pairs.
func (d *DMARegistry) Regions() [][2]uint32 {
	out := make([][2]uint32, len(d.regions))
	for i, r := range d.regions {
		out[i] = [2]uint32{r.addr, r.size}
	}
	return out
}

// MemBus gives DMA-capable devices access to guest physical memory.
// The virtual machine implements it.
type MemBus interface {
	// ReadMem copies len(p) bytes of guest memory at addr into p.
	ReadMem(addr uint32, p []byte)
	// WriteMem copies p into guest memory at addr.
	WriteMem(addr uint32, p []byte)
}

type binding struct {
	dev Device
	cfg PCIConfig
}

// Bus routes port and MMIO accesses to attached devices and exposes
// the shared interrupt line and DMA registry.
type Bus struct {
	devs []binding
	// Line is the shared interrupt line.
	Line IRQLine
	// DMA is the registry of driver-registered DMA regions.
	DMA DMARegistry
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Attach connects a device at the windows described by cfg.
func (b *Bus) Attach(dev Device, cfg PCIConfig) {
	b.devs = append(b.devs, binding{dev, cfg})
}

// Devices returns the attached PCI configurations, in attach order.
func (b *Bus) Devices() []PCIConfig {
	out := make([]PCIConfig, len(b.devs))
	for i, d := range b.devs {
		out[i] = d.cfg
	}
	return out
}

// FindByID returns the config of the device with the given IDs.
func (b *Bus) FindByID(vendor, device uint16) (PCIConfig, bool) {
	for _, d := range b.devs {
		if d.cfg.VendorID == vendor && d.cfg.DeviceID == device {
			return d.cfg, true
		}
	}
	return PCIConfig{}, false
}

// PortRead routes a port read; unmapped ports read as all-ones, the
// conventional open-bus value.
func (b *Bus) PortRead(port uint32, size int) uint32 {
	for _, d := range b.devs {
		if d.cfg.ContainsPort(port) {
			return d.dev.PortRead(port-d.cfg.IOBase, size) & sizeMask(size)
		}
	}
	return sizeMask(size)
}

// PortWrite routes a port write; unmapped writes are dropped.
func (b *Bus) PortWrite(port uint32, size int, v uint32) {
	for _, d := range b.devs {
		if d.cfg.ContainsPort(port) {
			d.dev.PortWrite(port-d.cfg.IOBase, size, v&sizeMask(size))
			return
		}
	}
}

// MMIORead routes a memory-mapped read.
func (b *Bus) MMIORead(addr uint32, size int) uint32 {
	for _, d := range b.devs {
		if d.cfg.ContainsMMIO(addr) {
			return d.dev.MMIORead(addr-d.cfg.MMIOAddr, size) & sizeMask(size)
		}
	}
	return sizeMask(size)
}

// MMIOWrite routes a memory-mapped write.
func (b *Bus) MMIOWrite(addr uint32, size int, v uint32) {
	for _, d := range b.devs {
		if d.cfg.ContainsMMIO(addr) {
			d.dev.MMIOWrite(addr-d.cfg.MMIOAddr, size, v&sizeMask(size))
			return
		}
	}
}

// Tick advances all devices one time step.
func (b *Bus) Tick() {
	for _, d := range b.devs {
		d.dev.Tick()
	}
}

// Reset resets every attached device and clears the interrupt line.
func (b *Bus) Reset() {
	for _, d := range b.devs {
		d.dev.Reset()
	}
	b.Line.Clear()
}

func sizeMask(size int) uint32 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	case 4:
		return 0xFFFFFFFF
	}
	panic(fmt.Sprintf("hw: invalid access size %d", size))
}

// SizeMask returns the value mask for an access of the given byte
// size (1, 2 or 4).
func SizeMask(size int) uint32 { return sizeMask(size) }

// NopDevice is an embeddable no-behaviour device; the shell device and
// simple models embed it and override what they need.
type NopDevice struct{ DevName string }

// Name implements Device.
func (n *NopDevice) Name() string { return n.DevName }

// Reset implements Device.
func (n *NopDevice) Reset() {}

// PortRead implements Device, reading as open bus.
func (n *NopDevice) PortRead(off uint32, size int) uint32 { return sizeMask(size) }

// PortWrite implements Device, dropping the write.
func (n *NopDevice) PortWrite(off uint32, size int, v uint32) {}

// MMIORead implements Device, reading as open bus.
func (n *NopDevice) MMIORead(off uint32, size int) uint32 { return sizeMask(size) }

// MMIOWrite implements Device, dropping the write.
func (n *NopDevice) MMIOWrite(off uint32, size int, v uint32) {}

// Tick implements Device.
func (n *NopDevice) Tick() {}
