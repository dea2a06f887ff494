// Package template provides the per-target-OS driver templates of
// §4.2: "The template contains all the boilerplate to communicate
// with the OS (e.g., memory allocation, timer management, and error
// recovery) ... Besides the boilerplate, the template also contains
// placeholders where the actual hardware I/O code is to be pasted."
//
// Each target OS contributes two artifacts:
//
//   - a Runtime: the executable boilerplate the synthesized driver
//     (package synthdrv) calls back into — allocation, receive
//     indication, completion signalling, timers, and the serializing
//     lock the paper notes every template carries;
//   - a source template: the complete driver source text with the
//     synthesized function calls pasted into its placeholders,
//     instantiated by Instantiate.
//
// Templates are arranged the way §2 describes: a generic base (the
// shared boilerplate here) with per-OS derivation; writing one took
// the paper's authors between 0 and 5 person-days (Table 3).
package template

import (
	"fmt"
	"strings"

	"revnic/internal/hw"
	"revnic/internal/synth"
)

// OS identifies a supported target operating system.
type OS string

// The four target platforms of the evaluation (§5.1).
const (
	Windows OS = "windows"
	Linux   OS = "linux"
	UCOS    OS = "ucos-ii"
	KitOS   OS = "kitos"
)

// AllOS lists the supported targets in the paper's order.
var AllOS = []OS{Windows, Linux, UCOS, KitOS}

// PersonDays is the template-writing effort reported in Table 3.
var PersonDays = map[OS]int{Windows: 5, Linux: 3, UCOS: 1, KitOS: 0}

// Runtime is the executable boilerplate: it implements
// synthdrv.TargetOS. The heap layout matches the source OS model so
// that allocation-order-identical drivers obtain identical addresses
// (which matters because DMA addresses flow into device registers).
type Runtime struct {
	OSName string
	Cfg    hw.PCIConfig

	// Received collects frames the driver handed up the stack.
	Received [][]byte
	// SendCompletes counts completion callbacks.
	SendCompletes int
	// LogCodes collects error-log codes.
	LogCodes []uint32
	// TimerHandler is the registered timer entry.
	TimerHandler uint32

	heapNext uint32
	uptime   uint32
}

// NewRuntime builds the runtime personality for an OS.
func NewRuntime(os OS, cfg hw.PCIConfig) *Runtime {
	return &Runtime{OSName: string(os), Cfg: cfg, heapNext: 0x00080000}
}

// Name implements synthdrv.TargetOS.
func (r *Runtime) Name() string { return r.OSName }

// AllocMemory implements synthdrv.TargetOS.
func (r *Runtime) AllocMemory(n uint32) uint32 {
	n = (n + 7) &^ 7
	a := r.heapNext
	r.heapNext += n
	return a
}

// AllocShared implements synthdrv.TargetOS; on these simulated
// platforms physical and virtual addresses coincide.
func (r *Runtime) AllocShared(n uint32) uint32 { return r.AllocMemory(n) }

// FreeMemory implements synthdrv.TargetOS.
func (r *Runtime) FreeMemory(addr uint32) {}

// ReadPCIConfig implements synthdrv.TargetOS.
func (r *Runtime) ReadPCIConfig(off uint32) uint32 {
	switch off {
	case 0:
		return uint32(r.Cfg.VendorID) | uint32(r.Cfg.DeviceID)<<16
	case 4:
		return r.Cfg.IOBase
	case 8:
		return uint32(r.Cfg.IRQLine)
	}
	return 0
}

// IndicateReceive implements synthdrv.TargetOS.
func (r *Runtime) IndicateReceive(frame []byte) {
	r.Received = append(r.Received, frame)
}

// SendComplete implements synthdrv.TargetOS.
func (r *Runtime) SendComplete(status uint32) { r.SendCompletes++ }

// Log implements synthdrv.TargetOS.
func (r *Runtime) Log(code uint32) { r.LogCodes = append(r.LogCodes, code) }

// InitializeTimer implements synthdrv.TargetOS.
func (r *Runtime) InitializeTimer(handler uint32) { r.TimerHandler = handler }

// SetTimer implements synthdrv.TargetOS.
func (r *Runtime) SetTimer(ms uint32) {}

// Stall implements synthdrv.TargetOS.
func (r *Runtime) Stall(us uint32) { r.uptime += us / 1000 }

// UpTime implements synthdrv.TargetOS.
func (r *Runtime) UpTime() uint32 { r.uptime++; return r.uptime }

// roleCall finds the synthesized function for a role, returning a C
// call expression.
func roleCall(out *synth.Output, role string, args string) string {
	for _, f := range out.Funcs {
		if f.Role == role {
			return fmt.Sprintf("%s(%s)", f.Name, args)
		}
	}
	return fmt.Sprintf("/* no %s function recovered */ 0", role)
}

// Instantiate pastes the synthesized code into the target OS
// template, producing the complete driver source text.
func Instantiate(os OS, driverName string, out *synth.Output) string {
	var b strings.Builder
	hdr := func(format string, a ...any) { fmt.Fprintf(&b, format+"\n", a...) }
	switch os {
	case Linux:
		hdr("/* %s driver for Linux 2.6.26, synthesized by RevNIC. */", driverName)
		hdr("#include <linux/netdevice.h>")
		hdr("#include <linux/pci.h>")
		hdr("#include \"revnic_runtime.h\"")
		hdr("")
		hdr("static int revnic_pci_init_one(struct pci_dev *pdev, const struct pci_device_id *ent)")
		hdr("{")
		hdr("\tstruct net_device *dev;")
		hdr("\tif (pci_enable_device(pdev)) return -EIO;")
		hdr("\t/* template boilerplate: resources, netdev allocation */")
		hdr("\tdev = alloc_etherdev(sizeof(struct revnic_priv));")
		hdr("\tif (!dev) return -ENOMEM;")
		hdr("\t/*** RevNIC-synthesized hardware bring-up ***/")
		hdr("\tif (%s == 0) goto err_unload;", roleCall(out, "initialize", ""))
		hdr("\t/*** end synthesized section ***/")
		hdr("\t/* adapt driver state to the target OS: copy the MAC")
		hdr("\t * out of the synthesized context into dev->dev_addr */")
		hdr("\tregister_netdev(dev);")
		hdr("\treturn 0;")
		hdr("err_unload:")
		hdr("\tfree_netdev(dev);")
		hdr("\treturn -ENODEV;")
		hdr("}")
		hdr("")
		hdr("static netdev_tx_t revnic_xmit(struct sk_buff *skb, struct net_device *dev)")
		hdr("{")
		hdr("\t/* NDIS_PACKET -> sk_buff adaptation by the developer (§4.2) */")
		hdr("\tspin_lock(&revnic_lock); /* template lock serializing entry points */")
		hdr("\t%s;", roleCall(out, "send", "GlobalState, (uint32_t)skb->data, skb->len"))
		hdr("\tspin_unlock(&revnic_lock);")
		hdr("\treturn NETDEV_TX_OK;")
		hdr("}")
		hdr("")
		hdr("static irqreturn_t revnic_interrupt(int irq, void *dev_id)")
		hdr("{")
		hdr("\tspin_lock(&revnic_lock);")
		hdr("\t%s;", roleCall(out, "isr", "GlobalState"))
		hdr("\tspin_unlock(&revnic_lock);")
		hdr("\treturn IRQ_HANDLED;")
		hdr("}")
	case Windows:
		hdr("/* %s driver for Windows XP (NDIS miniport), synthesized by RevNIC. */", driverName)
		hdr("#include <ndis.h>")
		hdr("#include \"revnic_runtime.h\"")
		hdr("")
		hdr("NDIS_STATUS MiniportInitialize(/* NDIS boilerplate args */)")
		hdr("{")
		hdr("\t/* template: NdisMSetAttributes, resource claims */")
		hdr("\t/*** RevNIC-synthesized hardware bring-up ***/")
		hdr("\tif (%s == 0) return NDIS_STATUS_FAILURE;", roleCall(out, "initialize", ""))
		hdr("\t/*** end synthesized section ***/")
		hdr("\treturn NDIS_STATUS_SUCCESS;")
		hdr("}")
		hdr("")
		hdr("VOID MiniportISR(PBOOLEAN recognized, PBOOLEAN queueDpc, NDIS_HANDLE ctx)")
		hdr("{")
		hdr("\t%s;", roleCall(out, "isr", "(uint32_t)ctx"))
		hdr("\t*recognized = TRUE;")
		hdr("}")
	case UCOS:
		hdr("/* %s driver for uC/OS-II on FPGA4U, synthesized by RevNIC. */", driverName)
		hdr("#include \"ucos_ii.h\"")
		hdr("#include \"revnic_runtime.h\"")
		hdr("")
		hdr("int revnic_netif_init(void)")
		hdr("{")
		hdr("\t/* the embedded template is thin: no PCI enumeration, the")
		hdr("\t * board file provides the I/O base (Table 3: 1 person-day) */")
		hdr("\treturn %s != 0 ? 0 : -1;", roleCall(out, "initialize", ""))
		hdr("}")
		hdr("")
		hdr("void revnic_isr_wrapper(void)")
		hdr("{")
		hdr("\tOSIntEnter();")
		hdr("\t%s;", roleCall(out, "isr", "GlobalState"))
		hdr("\tOSIntExit();")
		hdr("}")
	case KitOS:
		hdr("/* %s driver for KitOS (bare hardware), synthesized by RevNIC. */", driverName)
		hdr("#include \"revnic_runtime.h\"")
		hdr("")
		hdr("/* KitOS needs no template (Table 3: 0 person-days): the driver")
		hdr(" * talks to the hardware directly and the kernel entry just")
		hdr(" * chains the synthesized functions. */")
		hdr("void kitos_main(void)")
		hdr("{")
		hdr("\tuint32_t ctx = %s;", roleCall(out, "initialize", ""))
		hdr("\tfor (;;) {")
		hdr("\t\tif (irq_pending()) %s;", roleCall(out, "isr", "ctx"))
		hdr("\t}")
		hdr("}")
	}
	b.WriteString("\n/* ---- synthesized hardware-protocol code below ---- */\n\n")
	b.WriteString(out.Code)
	return b.String()
}
