package nic

import (
	"encoding/binary"

	"revnic/internal/hw"
)

// RTL8139 register offsets. The model follows the real chip's
// architecture: four transmit descriptors (TSD/TSAD register pairs)
// through which the driver hands physical buffer addresses to the
// bus-master DMA engine, a receive ring in host memory written by the
// device, 16-bit IMR/ISR with write-1-to-clear, and a CONFIG1
// register holding the Wake-on-LAN and LED bits that Table 2 credits
// this chip with.
const (
	R39IDR0    = 0x00 // station MAC, 6 bytes
	R39MAR0    = 0x08 // multicast hash, 8 bytes
	R39TSD0    = 0x10 // transmit status/command, 4 regs of 4 bytes
	R39TSAD0   = 0x20 // transmit buffer physical address, 4 regs
	R39RBSTART = 0x30 // receive ring physical address
	R39CR      = 0x37 // command (8-bit)
	R39CAPR    = 0x38 // rx read pointer (16-bit)
	R39IMR     = 0x3C // interrupt mask (16-bit)
	R39ISR     = 0x3E // interrupt status (16-bit, W1C)
	R39TCR     = 0x40
	R39RCR     = 0x44
	R39CONFIG1 = 0x52
	R39MSR     = 0x58 // media status
)

// RTL8139 CR bits.
const (
	R39CRBufEmpty = 1 << 0 // read-only: RX ring has no unread data
	R39CRTxEnable = 1 << 2
	R39CRRxEnable = 1 << 3
	R39CRReset    = 1 << 4
)

// RTL8139 ISR/IMR bits.
const (
	R39IntROK = 1 << 0
	R39IntTOK = 1 << 2
)

// RTL8139 TSD bits (beyond the 13-bit length field).
const (
	R39TSDOwn = 1 << 13 // cleared by driver to start, set by device when DMA done
	R39TSDTok = 1 << 15
)

// RTL8139 RCR bits.
const (
	R39RCRAAP = 1 << 0 // accept all (promiscuous)
	R39RCRAM  = 1 << 2 // accept multicast (hash)
	R39RCRAB  = 1 << 3 // accept broadcast
)

// RTL8139 CONFIG1 bits.
const (
	R39Config1PMEn = 1 << 0 // Wake-on-LAN enable
	R39Config1LED0 = 1 << 4 // LED on
)

// RTL8139 MSR bits.
const (
	R39MSRFullDup = 1 << 0
)

// r39RxRingSize is the receive ring size in host memory. The model
// operates in the chip's WRAP mode: a frame that would cross the ring
// end is written contiguously past it into slack space (the driver
// allocates r39RxAllocSize), and only the write pointer wraps.
const (
	r39RxRingSize  = 8192
	r39RxAllocSize = r39RxRingSize + 16 + 2048
)

// RTL8139 models the Realtek RTL8139C.
type RTL8139 struct {
	hw.NopDevice
	line *hw.IRQLine
	mem  hw.MemBus

	idr     [6]byte
	mar     [8]byte
	tsd     [4]uint32
	tsad    [4]uint32
	rbstart uint32
	cr      byte
	capr    uint16
	imr     uint16
	isr     uint16
	tcr     uint32
	rcr     uint32
	config1 byte
	msr     byte

	rxWrite uint32 // device write offset into the ring
	irqUp   bool
	tx      [][]byte
	mac     [6]byte
}

// NewRTL8139 builds the model. mem provides DMA access to host RAM.
func NewRTL8139(line *hw.IRQLine, mem hw.MemBus, mac [6]byte) *RTL8139 {
	d := &RTL8139{NopDevice: hw.NopDevice{DevName: "rtl8139"}, line: line, mem: mem, mac: mac}
	d.Reset()
	return d
}

// Reuse implements Model.
func (d *RTL8139) Reuse(line *hw.IRQLine, mem hw.MemBus) {
	*d = RTL8139{NopDevice: d.NopDevice, line: line, mem: mem, mac: d.mac}
	d.Reset()
}

// Reset implements hw.Device.
func (d *RTL8139) Reset() {
	d.idr = d.mac
	d.mar = [8]byte{}
	d.tsd = [4]uint32{}
	d.tsad = [4]uint32{}
	d.rbstart, d.capr, d.rxWrite = 0, 0, 0
	d.cr, d.imr, d.isr = 0, 0, 0
	d.tcr, d.rcr = 0, 0
	d.config1, d.msr = 0, R39MSRFullDup
	d.tx = nil
	d.updateIRQ()
}

func (d *RTL8139) updateIRQ() {
	up := d.isr&d.imr != 0
	if up && !d.irqUp {
		d.line.Assert()
	} else if !up && d.irqUp {
		d.line.Deassert()
	}
	d.irqUp = up
}

// PortRead implements hw.Device.
func (d *RTL8139) PortRead(off uint32, size int) uint32 {
	switch {
	case off < R39IDR0+6:
		return readBytes(d.idr[:], off, size)
	case off >= R39MAR0 && off < R39MAR0+8:
		return readBytes(d.mar[:], off-R39MAR0, size)
	case off >= R39TSD0 && off < R39TSD0+16:
		return d.tsd[(off-R39TSD0)/4]
	case off >= R39TSAD0 && off < R39TSAD0+16:
		return d.tsad[(off-R39TSAD0)/4]
	}
	switch off {
	case R39RBSTART:
		return d.rbstart
	case R39CR:
		v := uint32(d.cr)
		if d.rxWrite == uint32(d.capr)%r39RxRingSize {
			v |= R39CRBufEmpty
		}
		return v
	case R39CAPR:
		return uint32(d.capr)
	case R39IMR:
		return uint32(d.imr)
	case R39ISR:
		return uint32(d.isr)
	case R39TCR:
		return d.tcr
	case R39RCR:
		return d.rcr
	case R39CONFIG1:
		return uint32(d.config1)
	case R39MSR:
		return uint32(d.msr)
	}
	return 0
}

// PortWrite implements hw.Device.
func (d *RTL8139) PortWrite(off uint32, size int, v uint32) {
	switch {
	case off < R39IDR0+6:
		writeBytes(d.idr[:], off, size, v)
		return
	case off >= R39MAR0 && off < R39MAR0+8:
		writeBytes(d.mar[:], off-R39MAR0, size, v)
		return
	case off >= R39TSD0 && off < R39TSD0+16:
		i := (off - R39TSD0) / 4
		d.tsd[i] = v
		if v&R39TSDOwn == 0 { // driver cleared OWN: start DMA
			d.transmit(int(i))
		}
		return
	case off >= R39TSAD0 && off < R39TSAD0+16:
		d.tsad[(off-R39TSAD0)/4] = v
		return
	}
	switch off {
	case R39RBSTART:
		d.rbstart = v
		d.rxWrite = 0
	case R39CR:
		d.cr = byte(v)
		if d.cr&R39CRReset != 0 {
			mac := d.mac
			d.Reset()
			d.mac = mac
			d.cr = 0 // reset completes instantly; RST self-clears
		}
	case R39CAPR:
		d.capr = uint16(v)
	case R39IMR:
		d.imr = uint16(v)
		d.updateIRQ()
	case R39ISR:
		d.isr &^= uint16(v)
		d.updateIRQ()
	case R39TCR:
		d.tcr = v
	case R39RCR:
		d.rcr = v
	case R39CONFIG1:
		d.config1 = byte(v)
	case R39MSR:
		d.msr = byte(v)
	}
}

func (d *RTL8139) transmit(i int) {
	if d.cr&R39CRTxEnable == 0 {
		return
	}
	n := int(d.tsd[i] & 0x1FFF)
	if n == 0 || n > MaxFrame {
		return
	}
	frame := make([]byte, n)
	d.mem.ReadMem(d.tsad[i], frame)
	d.tx = append(d.tx, frame)
	d.tsd[i] |= R39TSDOwn | R39TSDTok
	d.isr |= R39IntTOK
	d.updateIRQ()
}

// InjectRX implements Model: the device DMA-writes a 4-byte header
// (status, length including a pseudo-FCS) plus the frame into the
// host receive ring.
func (d *RTL8139) InjectRX(frame []byte) bool {
	if d.cr&R39CRRxEnable == 0 || d.rbstart == 0 ||
		len(frame) < MinFrame || len(frame) > MaxFrame {
		return false
	}
	var mcast [8]byte
	if d.rcr&R39RCRAM != 0 {
		mcast = d.mar
	}
	if !acceptFrame(frame, d.idr, d.rcr&R39RCRAAP != 0, mcast) {
		return false
	}
	total := 4 + len(frame)
	aligned := (total + 3) &^ 3
	// Drop on ring full: distance to CAPR.
	used := (d.rxWrite + r39RxRingSize - uint32(d.capr)) % r39RxRingSize
	if used+uint32(aligned) >= r39RxRingSize {
		return false
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:], 1) // ROK
	binary.LittleEndian.PutUint16(hdr[2:], uint16(len(frame)+4))
	// WRAP mode: write header+frame contiguously (possibly past the
	// ring end into the slack area); only the pointer wraps.
	d.mem.WriteMem(d.rbstart+d.rxWrite, hdr[:])
	d.mem.WriteMem(d.rbstart+d.rxWrite+4, frame)
	d.rxWrite = (d.rxWrite + uint32(aligned)) % r39RxRingSize
	d.isr |= R39IntROK
	d.updateIRQ()
	return true
}

// TxFrames implements Model.
func (d *RTL8139) TxFrames() [][]byte {
	out := d.tx
	d.tx = nil
	return out
}

// StatusReport implements Model.
func (d *RTL8139) StatusReport() Status {
	return Status{
		MAC:           d.idr,
		Promiscuous:   d.rcr&R39RCRAAP != 0,
		FullDuplex:    d.msr&R39MSRFullDup != 0,
		WOLEnabled:    d.config1&R39Config1PMEn != 0,
		LEDOn:         d.config1&R39Config1LED0 != 0,
		RxEnabled:     d.cr&R39CRRxEnable != 0,
		TxEnabled:     d.cr&R39CRTxEnable != 0,
		MulticastHash: d.mar,
	}
}

// readBytes reads size bytes little-endian from a byte-register file.
func readBytes(regs []byte, off uint32, size int) uint32 {
	var v uint32
	for i := 0; i < size && int(off)+i < len(regs); i++ {
		v |= uint32(regs[int(off)+i]) << (8 * i)
	}
	return v
}

func writeBytes(regs []byte, off uint32, size int, v uint32) {
	for i := 0; i < size && int(off)+i < len(regs); i++ {
		regs[int(off)+i] = byte(v >> (8 * i))
	}
}
