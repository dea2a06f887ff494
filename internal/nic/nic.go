// Package nic provides behavioural register-level models of the four
// network interface chips whose Windows drivers the paper reverse
// engineers (Table 1): the Realtek RTL8029 (an NE2000 clone with a
// streaming remote-DMA data port), the Realtek RTL8139 (bus-master
// DMA with per-descriptor transmit registers and an RX ring), the AMD
// PCNet (indirect CSR register file behind an address/data port pair,
// init block and descriptor rings in host memory), and the SMSC
// 91C111 (bank-switched registers with an on-chip packet FIFO and no
// DMA).
//
// The models are the "real hardware" of the reproduction: original
// drivers run against them to produce reference I/O traces, and
// synthesized drivers run against them for the equivalence and
// performance experiments. The registers each model decodes define
// the hardware protocol the corresponding assembly driver implements.
package nic

import (
	"hash/crc32"

	"revnic/internal/hw"
)

// Status is a uniform snapshot of externally observable device state,
// used by the functionality-coverage experiment (Table 2).
type Status struct {
	MAC           [6]byte
	Promiscuous   bool
	FullDuplex    bool
	WOLEnabled    bool
	LEDOn         bool
	RxEnabled     bool
	TxEnabled     bool
	MulticastHash [8]byte
}

// Model is the common interface of all NIC device models, extending
// the raw bus device interface with the frame-level operations the
// test harness and benchmarks need.
type Model interface {
	// InjectRX delivers a frame from the wire to the device. It
	// returns false if the device dropped it (filter, disabled RX,
	// or no buffer space).
	InjectRX(frame []byte) bool
	// TxFrames returns the frames transmitted since the last call,
	// clearing the log.
	TxFrames() [][]byte
	// StatusReport snapshots observable device state.
	StatusReport() Status
	// Reuse returns the model, in place, to the state its constructor
	// gives, station MAC included, wired to line and, on bus-master
	// chips, mem. A rig draws a recycled model through it instead of
	// allocating one per run.
	Reuse(line *hw.IRQLine, mem hw.MemBus)
}

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// hashIndex computes the standard Ethernet multicast hash bit index:
// the top 6 bits of the CRC-32 of the destination address, as the
// 8390, RTL8139 and PCNet families all do.
func hashIndex(mac []byte) uint {
	crc := crc32.ChecksumIEEE(mac[:6])
	return uint(crc >> 26)
}

// acceptFrame implements the shared receive-filter logic: promiscuous
// accepts everything; otherwise unicast must match the station MAC,
// broadcast is accepted, and multicast must hit the hash filter.
func acceptFrame(frame []byte, mac [6]byte, promiscuous bool, mcastHash [8]byte) bool {
	if len(frame) < 14 {
		return false
	}
	if promiscuous {
		return true
	}
	var dst [6]byte
	copy(dst[:], frame[:6])
	if dst == mac {
		return true
	}
	if dst == BroadcastMAC {
		return true
	}
	if dst[0]&1 == 1 { // multicast bit
		idx := hashIndex(dst[:])
		return mcastHash[idx/8]&(1<<(idx%8)) != 0
	}
	return false
}

// MinFrame and MaxFrame bound legal Ethernet frame sizes (without
// FCS), matching what the drivers enforce.
const (
	MinFrame = 14
	MaxFrame = 1514
)
