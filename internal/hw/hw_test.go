package hw

import "testing"

// echoDev records writes and echoes them back on read.
type echoDev struct {
	NopDevice
	last  map[uint32]uint32
	ticks int
}

func newEchoDev(name string) *echoDev {
	return &echoDev{NopDevice: NopDevice{DevName: name}, last: map[uint32]uint32{}}
}

func (d *echoDev) PortRead(off uint32, size int) uint32     { return d.last[off] }
func (d *echoDev) PortWrite(off uint32, size int, v uint32) { d.last[off] = v }
func (d *echoDev) Tick()                                    { d.ticks++ }

func TestBusRouting(t *testing.T) {
	b := NewBus()
	d1 := newEchoDev("one")
	d2 := newEchoDev("two")
	b.Attach(d1, PCIConfig{VendorID: 1, DeviceID: 10, IOBase: 0x100, IOSize: 0x20})
	b.Attach(d2, PCIConfig{VendorID: 2, DeviceID: 20, IOBase: 0x200, IOSize: 0x20})

	b.PortWrite(0x104, 2, 0xBEEF)
	if got := b.PortRead(0x104, 2); got != 0xBEEF {
		t.Errorf("read = %#x", got)
	}
	if d1.last[4] != 0xBEEF {
		t.Error("offset translation wrong")
	}
	if len(d2.last) != 0 {
		t.Error("write leaked to wrong device")
	}
	// Unmapped port reads as open bus, masked to size.
	if got := b.PortRead(0x999, 1); got != 0xFF {
		t.Errorf("open bus read = %#x", got)
	}
	// Writes are masked to access size.
	b.PortWrite(0x200, 1, 0x1FF)
	if d2.last[0] != 0xFF {
		t.Errorf("write not masked: %#x", d2.last[0])
	}
	b.Tick()
	if d1.ticks != 1 || d2.ticks != 1 {
		t.Error("Tick not broadcast")
	}
	if _, ok := b.FindByID(2, 20); !ok {
		t.Error("FindByID failed")
	}
	if _, ok := b.FindByID(9, 9); ok {
		t.Error("FindByID false positive")
	}
	if len(b.Devices()) != 2 {
		t.Error("Devices()")
	}
}

func TestMMIORouting(t *testing.T) {
	b := NewBus()
	d := newEchoDev("mm")
	b.Attach(d, PCIConfig{MMIOAddr: MMIOBase + 0x1000, MMIOSize: 0x100})
	b.MMIOWrite(MMIOBase+0x1008, 4, 7)
	// echoDev does not override MMIO: open bus.
	if got := b.MMIORead(MMIOBase+0x1008, 4); got != 0xFFFFFFFF {
		t.Errorf("MMIO read = %#x", got)
	}
	if got := b.MMIORead(MMIOBase+0x9000, 2); got != 0xFFFF {
		t.Errorf("unmapped MMIO read = %#x", got)
	}
}

func TestIRQLine(t *testing.T) {
	var l IRQLine
	if l.Pending() {
		t.Fatal("fresh line pending")
	}
	l.Assert()
	l.Assert()
	l.Deassert()
	if !l.Pending() {
		t.Fatal("shared assertion lost")
	}
	l.Deassert()
	if l.Pending() {
		t.Fatal("line stuck")
	}
	l.Deassert() // extra deassert is harmless
	l.Assert()
	l.Clear()
	if l.Pending() {
		t.Fatal("Clear failed")
	}
}

func TestDMARegistry(t *testing.T) {
	var d DMARegistry
	d.Register(0x4000, 0x100)
	d.Register(0x8000, 0x10)
	if !d.Contains(0x4000) || !d.Contains(0x40FF) || d.Contains(0x4100) {
		t.Error("Contains wrong")
	}
	if len(d.Regions()) != 2 {
		t.Error("Regions")
	}
	// An exact duplicate is not recorded twice, so one Unregister
	// removes the region.
	d.Register(0x4000, 0x100)
	if got := d.Regions(); len(got) != 2 {
		t.Errorf("Regions after a duplicate = %#x", got)
	}
	d.Unregister(0x4000)
	if d.Contains(0x4050) {
		t.Error("Unregister failed")
	}
}

func TestMemoryMapPredicates(t *testing.T) {
	if !IsMMIO(MMIOBase) || IsMMIO(MMIOBase-1) {
		t.Error("IsMMIO")
	}
	if !IsAPIGate(APIBase) || IsAPIGate(APIBase-1) || IsAPIGate(MMIOBase) {
		t.Error("IsAPIGate")
	}
	if APIIndex(APIGate(7)) != 7 {
		t.Error("gate round trip")
	}
}

func TestPCIConfigWindows(t *testing.T) {
	c := PCIConfig{IOBase: 0x300, IOSize: 0x20, MMIOAddr: MMIOBase, MMIOSize: 0x1000}
	if !c.ContainsPort(0x300) || !c.ContainsPort(0x31F) || c.ContainsPort(0x320) {
		t.Error("ContainsPort")
	}
	if !c.ContainsMMIO(MMIOBase+0xFFF) || c.ContainsMMIO(MMIOBase+0x1000) {
		t.Error("ContainsMMIO")
	}
	portOnly := PCIConfig{IOBase: 0x300, IOSize: 0x20}
	if portOnly.ContainsMMIO(0) {
		t.Error("port-only device claims MMIO")
	}
}
