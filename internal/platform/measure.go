package platform

import (
	"fmt"

	"revnic/internal/cfg"
	"revnic/internal/drivers"
	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/nic"
	"revnic/internal/synthdrv"
	"revnic/internal/template"
	"revnic/internal/vm"
)

// DriverForm selects which implementation is being measured.
type DriverForm int

// Driver forms.
const (
	// Original is the closed-source binary driver on the source OS.
	Original DriverForm = iota
	// Synthesized is the RevNIC-generated driver.
	Synthesized
	// NativeTarget models the target OS's hand-written driver for
	// the same chip (e.g. 8139too.c): the same hardware protocol
	// with hand-optimized code, approximated as a fixed fraction of
	// the synthesized path length.
	NativeTarget
)

// nativeOptimization is the hand-tuning advantage attributed to
// mature native drivers (documented modeling assumption; see
// DESIGN.md).
const nativeOptimization = 0.93

// sizeRatio is the synthesized/original binary growth factor the
// paper reports for the 91C111 port (87 KB vs 59 KB, §5.3), applied
// to synthesized drivers on cache-sensitive platforms.
const sizeRatio = 87.0 / 59.0

func newModel(name string, line *hw.IRQLine, mem hw.MemBus, mac [6]byte) (nic.Model, error) {
	switch name {
	case "RTL8029":
		return nic.NewRTL8029(line, mac), nil
	case "RTL8139":
		return nic.NewRTL8139(line, mem, mac), nil
	case "AMD PCNet":
		return nic.NewPCNet(line, mem, mac), nil
	case "SMSC 91C111":
		return nic.NewSMC91C111(line, mac), nil
	}
	return nil, fmt.Errorf("platform: unknown driver %q", name)
}

var measureMAC = [6]byte{0x02, 0x77, 0x66, 0x55, 0x44, 0x33}

// MeasureOriginal runs the original binary driver and returns the
// per-packet cost (send + completion ISR) for each payload size.
func MeasureOriginal(info *drivers.Info, payloads []int) (map[int]DriverCost, error) {
	bus := hw.NewBus()
	m := vm.New(bus)
	defer m.RAM.Free()
	cfgp := hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
		IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
	dev, err := newModel(info.Name, &bus.Line, m, measureMAC)
	if err != nil {
		return nil, err
	}
	bus.Attach(dev.(hw.Device), cfgp)
	if err := m.LoadImage(info.Program); err != nil {
		return nil, err
	}
	osm := guestos.New(m, cfgp)
	var io int64
	m.AddIOTap(func(port, write bool, addr uint32, size int, v uint32) {
		if port {
			io++
		}
	})
	if err := osm.LoadDriver(info.Program.Base); err != nil {
		return nil, err
	}
	if err := osm.Initialize(); err != nil {
		return nil, err
	}
	out := map[int]DriverCost{}
	for _, p := range payloads {
		frame := mkMeasureFrame(p)
		c0, io0 := m.Cycles, io
		if _, err := osm.Send(frame); err != nil {
			return nil, err
		}
		if _, err := osm.PumpInterrupts(8); err != nil {
			return nil, err
		}
		dev.TxFrames()
		out[p] = DriverCost{
			Instrs:    int64(m.Cycles - c0),
			IOOps:     io - io0,
			SizeRatio: 1.0,
		}
	}
	return out, nil
}

// MeasureSynthesized runs the synthesized driver and returns the
// per-packet cost per payload size. graph is the recovered CFG.
func MeasureSynthesized(info *drivers.Info, g *cfg.Graph, osKind template.OS, payloads []int) (map[int]DriverCost, error) {
	bus := hw.NewBus()
	cfgp := hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
		IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
	rt := template.NewRuntime(osKind, cfgp)
	d := synthdrv.New(g, rt, bus)
	defer d.Mem.Free()
	dev, err := newModel(info.Name, &bus.Line, d, measureMAC)
	if err != nil {
		return nil, err
	}
	bus.Attach(dev.(hw.Device), cfgp)
	if err := d.Initialize(); err != nil {
		return nil, err
	}
	out := map[int]DriverCost{}
	for _, p := range payloads {
		frame := mkMeasureFrame(p)
		i0, io0 := d.Counters()
		if _, err := d.Send(frame); err != nil {
			return nil, err
		}
		if _, err := d.PumpInterrupts(8); err != nil {
			return nil, err
		}
		dev.TxFrames()
		i1, io1 := d.Counters()
		out[p] = DriverCost{Instrs: i1 - i0, IOOps: io1 - io0, SizeRatio: sizeRatio}
	}
	return out, nil
}

// NativeCosts derives a native-target-driver cost profile from the
// synthesized one.
func NativeCosts(synth map[int]DriverCost) map[int]DriverCost {
	out := make(map[int]DriverCost, len(synth))
	for k, v := range synth {
		out[k] = DriverCost{
			Instrs:    int64(float64(v.Instrs) * nativeOptimization),
			IOOps:     v.IOOps,
			SizeRatio: 1.0,
		}
	}
	return out
}

func mkMeasureFrame(payload int) []byte {
	n := FrameBytes(payload)
	f := make([]byte, n)
	copy(f, nic.BroadcastMAC[:])
	copy(f[6:], measureMAC[:])
	f[12], f[13] = 0x08, 0x00
	for i := 14; i < n; i++ {
		f[i] = byte(i)
	}
	return f
}

// ISRFraction measures the share of CPU time spent inside the driver
// (Figure 5) as driver time over total per-packet CPU work at the
// given frame size.
func ISRFraction(m Machine, os StackModel, cost DriverCost, frame int) float64 {
	driverUS := DriverUS(m, cost)
	total := StackUS(m, os, frame) + driverUS
	return 100 * driverUS / total
}
