package platform

import (
	"revnic/internal/cfg"
	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/ir"
	"revnic/internal/nic"
	"revnic/internal/synthdrv"
	"revnic/internal/template"
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

var measureMAC = [6]byte{0x02, 0x77, 0x66, 0x55, 0x44, 0x33}

// MeasureOriginal runs the original binary driver and returns the
// per-packet cost (send + completion ISR) for each payload size.
func MeasureOriginal(info *drivers.Info, payloads []int) (map[int]DriverCost, error) {
	rig, err := core.NewOriginalRig(info, ir.NewImage(info.Program), measureMAC, nil)
	if err != nil {
		return nil, err
	}
	return measure(rig, payloads, 1.0)
}

// MeasureSynthesized runs the synthesized driver and returns the
// per-packet cost per payload size. graph is the recovered CFG.
func MeasureSynthesized(info *drivers.Info, g *cfg.Graph, osKind template.OS, payloads []int) (map[int]DriverCost, error) {
	rig, err := core.NewSynthRig(synthdrv.NewCode(g), info, osKind, measureMAC, nil)
	if err != nil {
		return nil, err
	}
	return measure(rig, payloads, sizeRatio)
}

// measure initializes the rig's driver, then sends one frame per
// payload size and services its completion interrupt, counting the
// instructions the machine completes and the port I/O it performs.
func measure(rig *core.Rig, payloads []int, ratio float64) (map[int]DriverCost, error) {
	defer rig.Close()
	if err := rig.Side.Initialize(); err != nil {
		return nil, err
	}
	out := map[int]DriverCost{}
	for _, p := range payloads {
		c0, t0 := rig.M.Cycles, len(rig.Trace())
		if _, err := rig.Side.Send(mkMeasureFrame(p)); err != nil {
			return nil, err
		}
		if _, err := rig.Side.PumpInterrupts(8); err != nil {
			return nil, err
		}
		rig.Dev.TxFrames()
		var io int64
		for _, ev := range rig.Trace()[t0:] {
			if ev.Port {
				io++
			}
		}
		out[p] = DriverCost{Instrs: int64(rig.M.Cycles - c0), IOOps: io, SizeRatio: ratio}
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
