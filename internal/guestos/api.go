// Package guestos models the source operating system (an NDIS-like
// Windows kernel) around the driver: the documented API functions the
// driver imports, miniport entry-point registration, memory and DMA
// allocation, packet indication, and the user-mode exerciser script
// that drives the driver through its operations (§3.2 of the paper).
//
// RevNIC's requirement is that "the OS driver interface and all API
// functions used by the driver be documented ... the name of the API
// functions, the parameter descriptions, along with information about
// data structures used by these functions". The Table in this file is
// that internal encoding.
package guestos

// API indices. A driver calls API n by calling the gate address
// hw.APIGate(n); the VM intercepts the call and dispatches here.
const (
	APIRegisterMiniport     = iota // (characteristicsPtr) -> status
	APIAllocateMemory              // (size) -> vaddr (0 on failure)
	APIFreeMemory                  // (vaddr) -> 0
	APIAllocateSharedMemory        // (size) -> DMA-capable physical addr
	APIFreeSharedMemory            // (addr) -> 0
	APIWriteErrorLogEntry          // (code) -> 0; irrelevant to hardware protocol
	APIReadPCIConfig               // (offset) -> config dword
	APIInitializeTimer             // (handlerAddr) -> 0
	APISetTimer                    // (milliseconds) -> 0
	APIIndicateReceive             // (bufAddr, len) -> 0; driver hands frame up
	APISendComplete                // (status) -> 0
	APIStallExecution              // (microseconds) -> 0; busy-wait
	APIGetSystemUpTime             // () -> milliseconds
	APIDebugPrint                  // (msgAddr) -> 0; irrelevant to hardware protocol
	NumAPIs
)

// Kind classifies API functions the way RevNIC's configuration does:
// which calls register driver structure (and must be monitored),
// which are irrelevant to the hardware protocol (skippable), and
// which return DMA addresses (must be communicated to the shell
// device).
type Kind int

// API kinds.
const (
	KindPlain Kind = iota
	// KindRegister functions register entry points or timers; RevNIC
	// monitors them to discover what to exercise (§3.2).
	KindRegister
	// KindAlloc functions return fresh guest memory.
	KindAlloc
	// KindDMAAlloc functions return DMA-capable physical memory whose
	// addresses must be tracked (§3.4).
	KindDMAAlloc
	// KindSkippable functions are irrelevant to the hardware protocol
	// (logging, debug output) and are skipped during symbolic
	// exploration (§3.2's final heuristic).
	KindSkippable
	// KindUpcall functions deliver data or events from the driver to
	// the OS (receive indication, send completion).
	KindUpcall
)

// Desc documents one API function: RevNIC's encoding of the
// "documented OS interface".
type Desc struct {
	Name  string
	NArgs int
	Kind  Kind
}

// maxArgs is the most stack arguments an API in Table takes.
const maxArgs = 2

// Table is the API descriptor table, indexed by API index. Names
// follow the NDIS flavor of the originals.
var Table = [NumAPIs]Desc{
	APIRegisterMiniport:     {"NdisMRegisterMiniport", 1, KindRegister},
	APIAllocateMemory:       {"NdisAllocateMemory", 1, KindAlloc},
	APIFreeMemory:           {"NdisFreeMemory", 1, KindPlain},
	APIAllocateSharedMemory: {"NdisMAllocateSharedMemory", 1, KindDMAAlloc},
	APIFreeSharedMemory:     {"NdisMFreeSharedMemory", 1, KindPlain},
	APIWriteErrorLogEntry:   {"NdisWriteErrorLogEntry", 1, KindSkippable},
	APIReadPCIConfig:        {"NdisReadPciSlotInformation", 1, KindPlain},
	APIInitializeTimer:      {"NdisMInitializeTimer", 1, KindRegister},
	APISetTimer:             {"NdisMSetTimer", 1, KindPlain},
	APIIndicateReceive:      {"NdisMIndicateReceivePacket", 2, KindUpcall},
	APISendComplete:         {"NdisMSendComplete", 1, KindUpcall},
	APIStallExecution:       {"NdisStallExecution", 1, KindPlain},
	APIGetSystemUpTime:      {"NdisGetSystemUpTime", 0, KindPlain},
	APIDebugPrint:           {"DbgPrint", 1, KindSkippable},
}

// PCI config-space offsets understood by APIReadPCIConfig.
const (
	PCICfgID     = 0 // vendor in low 16 bits, device in high 16
	PCICfgIOBase = 4
	PCICfgIRQ    = 8
)

// Miniport characteristics table layout: the structure the driver
// passes to NdisMRegisterMiniport, holding its entry points. Offsets
// in bytes; a zero pointer means the entry point is absent.
const (
	CharInit  = 0
	CharSend  = 4
	CharISR   = 8
	CharQuery = 12
	CharSet   = 16
	CharHalt  = 20
	CharSize  = 24
)

// NDIS-flavored status codes.
const (
	StatusSuccess = 0
	StatusFailure = 1
)

// NDIS-flavored OIDs used by the exerciser and the drivers.
const (
	OIDPacketFilter  = 0x0001010E // OID_GEN_CURRENT_PACKET_FILTER
	OIDLinkSpeed     = 0x00010107 // OID_GEN_LINK_SPEED
	OIDMediaStatus   = 0x00010114 // OID_GEN_MEDIA_CONNECT_STATUS
	OIDMACAddress    = 0x01010102 // OID_802_3_CURRENT_ADDRESS
	OIDMulticastList = 0x01010103 // OID_802_3_MULTICAST_LIST
	OIDEnableWOL     = 0xFD010106 // OID_PNP_ENABLE_WAKE_UP
	OIDFullDuplex    = 0x00012000 // vendor-specific duplex control
	OIDLEDControl    = 0x00012001 // vendor-specific LED control
)

// Packet-filter bits (NDIS_PACKET_TYPE_*).
const (
	FilterDirected    = 0x01
	FilterMulticast   = 0x02
	FilterBroadcast   = 0x04
	FilterPromiscuous = 0x20
)
