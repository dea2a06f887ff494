package nic

import (
	"encoding/binary"

	"revnic/internal/hw"
)

// PCNet register offsets. The model follows the AMD Am79C970
// architecture: the station address PROM is directly readable, but
// all control state lives in CSRs reached indirectly by writing the
// register number to RAP and then accessing RDP — the exact
// "write a register address on one port and read the value on
// another" pattern §3.2 of the paper singles out for its
// function-model heuristic. Initialization happens through an init
// block in host memory whose address is given in CSR1/CSR2, and
// packet I/O goes through OWN-bit descriptor rings with bus-master
// DMA.
const (
	PCNAPROM = 0x00 // station address PROM, 16 bytes
	PCNRDP   = 0x10 // CSR data port (16-bit)
	PCNRAP   = 0x12 // register address port
	PCNRESET = 0x14 // reading resets the chip
	PCNBDP   = 0x16 // BCR data port
)

// PCNet CSR0 bits.
const (
	PCNCSR0Init = 1 << 0
	PCNCSR0Strt = 1 << 1
	PCNCSR0Stop = 1 << 2
	PCNCSR0TDMD = 1 << 3
	PCNCSR0IENA = 1 << 6
	PCNCSR0IDON = 1 << 8
	PCNCSR0TINT = 1 << 9
	PCNCSR0RINT = 1 << 10
)

// PCNet CSR15 (mode) bits.
const (
	PCNModeProm = 1 << 15
)

// PCNet BCR9 bits.
const (
	PCNBCR9FullDup = 1 << 0
)

// pcnRingLen is the fixed descriptor ring length of the model.
const pcnRingLen = 4

// pcnDescSize is the size of one ring descriptor: buffer physical
// address (4 bytes), flags (2, bit15 = OWN), length (2).
const pcnDescSize = 8

// pcnDescOwn marks a descriptor owned by the device.
const pcnDescOwn = 0x8000

// PCNet models the AMD PCNet (Am79C970A).
type PCNet struct {
	hw.NopDevice
	line *hw.IRQLine
	mem  hw.MemBus

	aprom [16]byte
	rap   uint16
	csr   [128]uint16
	bcr   [32]uint16

	mac         [6]byte // effective station address (from init block)
	ladrf       [8]byte // multicast hash from init block
	mode        uint16  // from init block
	rdra        uint32  // receive ring base
	tdra        uint32  // transmit ring base
	rxIdx       int
	txIdx       int
	started     bool
	irqUp       bool
	tx          [][]byte
	ledActivity bool
}

// NewPCNet builds the model; mem provides DMA access to host memory.
func NewPCNet(line *hw.IRQLine, mem hw.MemBus, mac [6]byte) *PCNet {
	d := &PCNet{NopDevice: hw.NopDevice{DevName: "pcnet"}, line: line, mem: mem}
	copy(d.aprom[:], mac[:])
	d.Reset()
	return d
}

// Reuse implements Model.
func (d *PCNet) Reuse(line *hw.IRQLine, mem hw.MemBus) {
	*d = PCNet{NopDevice: d.NopDevice, line: line, mem: mem, aprom: d.aprom}
	d.Reset()
}

// Reset implements hw.Device.
func (d *PCNet) Reset() {
	d.rap = 0
	d.csr = [128]uint16{}
	d.bcr = [32]uint16{}
	d.csr[0] = PCNCSR0Stop
	d.mac = [6]byte{}
	d.ladrf = [8]byte{}
	d.mode = 0
	d.rdra, d.tdra = 0, 0
	d.rxIdx, d.txIdx = 0, 0
	d.started = false
	d.tx = nil
	d.updateIRQ()
}

func (d *PCNet) updateIRQ() {
	pending := d.csr[0] & (PCNCSR0IDON | PCNCSR0TINT | PCNCSR0RINT)
	up := d.csr[0]&PCNCSR0IENA != 0 && pending != 0
	if up && !d.irqUp {
		d.line.Assert()
	} else if !up && d.irqUp {
		d.line.Deassert()
	}
	d.irqUp = up
}

// PortRead implements hw.Device.
func (d *PCNet) PortRead(off uint32, size int) uint32 {
	switch {
	case off < 16:
		return readBytes(d.aprom[:], off, size)
	case off == PCNRDP:
		return uint32(d.readCSR(d.rap))
	case off == PCNRAP:
		return uint32(d.rap)
	case off == PCNRESET:
		d.Reset()
		return 0
	case off == PCNBDP:
		return uint32(d.bcr[d.rap%32])
	}
	return 0
}

// PortWrite implements hw.Device.
func (d *PCNet) PortWrite(off uint32, size int, v uint32) {
	switch off {
	case PCNRDP:
		d.writeCSR(d.rap, uint16(v))
	case PCNRAP:
		d.rap = uint16(v) % 128
	case PCNBDP:
		d.bcr[d.rap%32] = uint16(v)
	}
}

func (d *PCNet) readCSR(n uint16) uint16 { return d.csr[n%128] }

func (d *PCNet) writeCSR(n uint16, v uint16) {
	n %= 128
	switch n {
	case 0:
		// Bits IDON/TINT/RINT are write-1-to-clear; control bits are
		// levels the driver sets.
		w1c := v & (PCNCSR0IDON | PCNCSR0TINT | PCNCSR0RINT)
		d.csr[0] &^= w1c
		ctl := v &^ (PCNCSR0IDON | PCNCSR0TINT | PCNCSR0RINT)
		d.csr[0] = d.csr[0]&(PCNCSR0IDON|PCNCSR0TINT|PCNCSR0RINT) | ctl
		if v&PCNCSR0Init != 0 {
			d.loadInitBlock()
		}
		if v&PCNCSR0Strt != 0 {
			d.started = true
			d.csr[0] &^= PCNCSR0Stop
		}
		if v&PCNCSR0Stop != 0 {
			d.started = false
		}
		if v&PCNCSR0TDMD != 0 {
			d.pollTx()
			d.csr[0] &^= PCNCSR0TDMD
		}
		d.updateIRQ()
	default:
		d.csr[n] = v
		if n == 15 {
			d.mode = v
		}
	}
}

// initBlock layout in host memory (20 bytes):
//
//	+0  mode (u16)
//	+2  station MAC (6 bytes)
//	+8  multicast hash LADRF (8 bytes)
//	+16 rdra (u32): receive descriptor ring physical address
//	+20 tdra (u32): transmit descriptor ring physical address
func (d *PCNet) loadInitBlock() {
	addr := uint32(d.csr[1]) | uint32(d.csr[2])<<16
	var blk [24]byte
	d.mem.ReadMem(addr, blk[:])
	d.mode = binary.LittleEndian.Uint16(blk[0:])
	d.csr[15] = d.mode
	copy(d.mac[:], blk[2:8])
	copy(d.ladrf[:], blk[8:16])
	d.rdra = binary.LittleEndian.Uint32(blk[16:20])
	d.tdra = binary.LittleEndian.Uint32(blk[20:24])
	d.rxIdx, d.txIdx = 0, 0
	d.csr[0] |= PCNCSR0IDON
	d.updateIRQ()
}

func (d *PCNet) readDesc(base uint32, i int) (addr uint32, flags, length uint16) {
	var b [pcnDescSize]byte
	d.mem.ReadMem(base+uint32(i*pcnDescSize), b[:])
	return binary.LittleEndian.Uint32(b[0:]),
		binary.LittleEndian.Uint16(b[4:]),
		binary.LittleEndian.Uint16(b[6:])
}

func (d *PCNet) writeDescFlagsLen(base uint32, i int, flags, length uint16) {
	var b [4]byte
	binary.LittleEndian.PutUint16(b[0:], flags)
	binary.LittleEndian.PutUint16(b[2:], length)
	d.mem.WriteMem(base+uint32(i*pcnDescSize)+4, b[:])
}

// pollTx walks the transmit ring from txIdx, transmitting every
// descriptor the driver has handed over (OWN set).
func (d *PCNet) pollTx() {
	if !d.started || d.tdra == 0 {
		return
	}
	for n := 0; n < pcnRingLen; n++ {
		addr, flags, length := d.readDesc(d.tdra, d.txIdx)
		if flags&pcnDescOwn == 0 {
			return
		}
		if int(length) > 0 && int(length) <= MaxFrame {
			frame := make([]byte, length)
			d.mem.ReadMem(addr, frame)
			d.tx = append(d.tx, frame)
			d.ledActivity = true
		}
		d.writeDescFlagsLen(d.tdra, d.txIdx, flags&^pcnDescOwn, length)
		d.txIdx = (d.txIdx + 1) % pcnRingLen
		d.csr[0] |= PCNCSR0TINT
	}
	d.updateIRQ()
}

// InjectRX implements Model: the frame is DMA-written to the next
// device-owned receive descriptor.
func (d *PCNet) InjectRX(frame []byte) bool {
	if !d.started || d.rdra == 0 || len(frame) < MinFrame || len(frame) > MaxFrame {
		return false
	}
	if !acceptFrame(frame, d.mac, d.mode&PCNModeProm != 0, d.ladrf) {
		return false
	}
	addr, flags, _ := d.readDesc(d.rdra, d.rxIdx)
	if flags&pcnDescOwn == 0 {
		return false // no buffer available
	}
	d.mem.WriteMem(addr, frame)
	d.writeDescFlagsLen(d.rdra, d.rxIdx, flags&^pcnDescOwn, uint16(len(frame)))
	d.rxIdx = (d.rxIdx + 1) % pcnRingLen
	d.ledActivity = true
	d.csr[0] |= PCNCSR0RINT
	d.updateIRQ()
	return true
}

// TxFrames implements Model.
func (d *PCNet) TxFrames() [][]byte {
	out := d.tx
	d.tx = nil
	return out
}

// StatusReport implements Model.
func (d *PCNet) StatusReport() Status {
	mac := d.mac
	if mac == ([6]byte{}) {
		copy(mac[:], d.aprom[:6])
	}
	return Status{
		MAC:           mac,
		Promiscuous:   d.mode&PCNModeProm != 0,
		FullDuplex:    d.bcr[9]&PCNBCR9FullDup != 0,
		RxEnabled:     d.started,
		TxEnabled:     d.started,
		LEDOn:         d.ledActivity,
		MulticastHash: d.ladrf,
	}
}
