package nic

import "revnic/internal/hw"

// RTL8029 register offsets within the port window. The model follows
// the NE2000/8390 architecture: a command register, an interrupt
// status register with write-1-to-clear semantics, a remote-DMA
// engine (RSAR/RBCR + streaming data port) that is the only path to
// the 16 KB on-chip packet memory, and a receive ring managed by the
// BNRY/CURR page pointers. There is no bus-master DMA and no
// Wake-on-LAN, matching Table 2 (N/A entries).
const (
	R29CR    = 0x00 // command
	R29ISR   = 0x01 // interrupt status (W1C)
	R29IMR   = 0x02 // interrupt mask
	R29RCR   = 0x03 // receive config
	R29TCR   = 0x04 // transmit config
	R29TPSR  = 0x05 // transmit page start
	R29TBCRL = 0x06 // transmit byte count low
	R29TBCRH = 0x07
	R29RSARL = 0x08 // remote start address
	R29RSARH = 0x09
	R29RBCRL = 0x0A // remote byte count
	R29RBCRH = 0x0B
	R29BNRY  = 0x0C // ring boundary (driver read pointer, page)
	R29CURR  = 0x0D // ring current (device write pointer, page)
	R29MAR0  = 0x10 // multicast hash, 8 bytes
	R29DATA  = 0x18 // remote DMA data port
)

// RTL8029 CR bits.
const (
	R29CRStop  = 1 << 0
	R29CRStart = 1 << 1
	R29CRTxp   = 1 << 2
)

// RTL8029 ISR bits.
const (
	R29ISRPrx = 1 << 0 // packet received
	R29ISRPtx = 1 << 1 // packet transmitted
	R29ISROvw = 1 << 3 // ring overflow
)

// RTL8029 RCR bits.
const (
	R29RCRProm = 1 << 0
	R29RCRAM   = 1 << 1
)

// RTL8029 TCR bits.
const (
	R29TCRFdx = 1 << 0
)

// On-chip memory geometry: 16 KB organized in 256-byte pages.
// Pages 0x40..0x45 are the transmit area, 0x46..0x7F the receive
// ring. Remote addresses below promSize read the station PROM.
const (
	r29PageSize  = 256
	r29FirstPage = 0x40
	r29TxPages   = 6
	r29RxStart   = r29FirstPage + r29TxPages
	r29RxStop    = 0x80
	r29PromSize  = 0x20
)

// RTL8029 models the Realtek RTL8029 (NE2000 clone).
type RTL8029 struct {
	hw.NopDevice
	line *hw.IRQLine

	mem  [16 * 1024]byte
	prom [r29PromSize]byte

	cr, isr, imr, rcr, tcr byte
	tpsr, bnry, curr       byte
	tbcr, rsar, rbcr       uint16
	mar                    [8]byte
	irqUp                  bool
	tx                     [][]byte
	// LEDActivity pulses on TX/RX; Table 2 lists LED as N/T for
	// this chip, but the model keeps the bit for completeness.
	ledActivity bool
}

// NewRTL8029 builds a model with the given station MAC.
func NewRTL8029(line *hw.IRQLine, mac [6]byte) *RTL8029 {
	d := &RTL8029{NopDevice: hw.NopDevice{DevName: "rtl8029"}, line: line}
	copy(d.prom[:], mac[:])
	d.Reset()
	return d
}

// Reuse implements Model; the chip has no DMA, so mem is unused. It
// clears the on-chip packet memory too, which Reset keeps.
func (d *RTL8029) Reuse(line *hw.IRQLine, _ hw.MemBus) {
	*d = RTL8029{NopDevice: d.NopDevice, line: line, prom: d.prom}
	d.Reset()
}

// Reset implements hw.Device.
func (d *RTL8029) Reset() {
	d.cr = R29CRStop
	d.isr, d.imr, d.rcr, d.tcr = 0, 0, 0, 0
	d.tpsr, d.tbcr, d.rsar, d.rbcr = 0, 0, 0, 0
	d.bnry, d.curr = r29RxStart, r29RxStart
	d.mar = [8]byte{}
	d.tx = nil
	d.updateIRQ()
}

func (d *RTL8029) updateIRQ() {
	up := d.isr&d.imr != 0
	if up && !d.irqUp {
		d.line.Assert()
	} else if !up && d.irqUp {
		d.line.Deassert()
	}
	d.irqUp = up
}

// PortRead implements hw.Device.
func (d *RTL8029) PortRead(off uint32, size int) uint32 {
	switch {
	case off == R29DATA:
		return d.remoteRead(size)
	case off >= R29MAR0 && off < R29MAR0+8:
		return uint32(d.mar[off-R29MAR0])
	}
	switch off {
	case R29CR:
		return uint32(d.cr)
	case R29ISR:
		return uint32(d.isr)
	case R29IMR:
		return uint32(d.imr)
	case R29RCR:
		return uint32(d.rcr)
	case R29TCR:
		return uint32(d.tcr)
	case R29TPSR:
		return uint32(d.tpsr)
	case R29BNRY:
		return uint32(d.bnry)
	case R29CURR:
		return uint32(d.curr)
	case R29RSARL:
		return uint32(d.rsar & 0xFF)
	case R29RSARH:
		return uint32(d.rsar >> 8)
	case R29RBCRL:
		return uint32(d.rbcr & 0xFF)
	case R29RBCRH:
		return uint32(d.rbcr >> 8)
	}
	return 0
}

// PortWrite implements hw.Device.
func (d *RTL8029) PortWrite(off uint32, size int, v uint32) {
	b := byte(v)
	switch {
	case off == R29DATA:
		d.remoteWrite(v, size)
		return
	case off >= R29MAR0 && off < R29MAR0+8:
		d.mar[off-R29MAR0] = b
		return
	}
	switch off {
	case R29CR:
		d.cr = b
		if b&R29CRTxp != 0 {
			d.transmit()
			d.cr &^= R29CRTxp
		}
	case R29ISR:
		d.isr &^= b // write 1 to clear
		d.updateIRQ()
	case R29IMR:
		d.imr = b
		d.updateIRQ()
	case R29RCR:
		d.rcr = b
	case R29TCR:
		d.tcr = b
	case R29TPSR:
		d.tpsr = b
	case R29TBCRL:
		d.tbcr = d.tbcr&0xFF00 | uint16(b)
	case R29TBCRH:
		d.tbcr = d.tbcr&0x00FF | uint16(b)<<8
	case R29RSARL:
		d.rsar = d.rsar&0xFF00 | uint16(b)
	case R29RSARH:
		d.rsar = d.rsar&0x00FF | uint16(b)<<8
	case R29RBCRL:
		d.rbcr = d.rbcr&0xFF00 | uint16(b)
	case R29RBCRH:
		d.rbcr = d.rbcr&0x00FF | uint16(b)<<8
	case R29BNRY:
		d.bnry = b
	case R29CURR:
		d.curr = b
	}
}

// remoteRead streams from PROM or packet memory through the data
// port, advancing RSAR and consuming RBCR.
func (d *RTL8029) remoteRead(size int) uint32 {
	var v uint32
	for i := 0; i < size; i++ {
		var byteV byte
		addr := d.rsar
		if addr < r29PromSize {
			byteV = d.prom[addr]
		} else if idx := int(addr) - r29FirstPage*r29PageSize; idx >= 0 && idx < len(d.mem) {
			byteV = d.mem[idx]
		}
		v |= uint32(byteV) << (8 * i)
		d.advanceRSAR()
	}
	return v
}

// advanceRSAR steps the remote DMA address, wrapping inside the
// receive ring like the 8390's send-packet/remote engine does, so a
// frame spanning the ring end streams out contiguously.
func (d *RTL8029) advanceRSAR() {
	d.rsar++
	if d.rsar >= r29RxStop*r29PageSize {
		d.rsar = r29RxStart * r29PageSize
	}
	if d.rbcr > 0 {
		d.rbcr--
	}
}

func (d *RTL8029) remoteWrite(v uint32, size int) {
	for i := 0; i < size; i++ {
		addr := d.rsar
		if idx := int(addr) - r29FirstPage*r29PageSize; idx >= 0 && idx < len(d.mem) {
			d.mem[idx] = byte(v >> (8 * i))
		}
		d.advanceRSAR()
	}
}

func (d *RTL8029) transmit() {
	if d.cr&R29CRStart == 0 {
		return
	}
	start := int(d.tpsr)*r29PageSize - r29FirstPage*r29PageSize
	n := int(d.tbcr)
	if start < 0 || start+n > len(d.mem) || n == 0 {
		return
	}
	frame := make([]byte, n)
	copy(frame, d.mem[start:start+n])
	d.tx = append(d.tx, frame)
	d.ledActivity = true
	d.isr |= R29ISRPtx
	d.updateIRQ()
}

// InjectRX implements Model: the frame lands in the receive ring with
// a 4-byte 8390-style header (status, next page, length).
func (d *RTL8029) InjectRX(frame []byte) bool {
	if d.cr&R29CRStart == 0 || len(frame) < MinFrame || len(frame) > MaxFrame {
		return false
	}
	var mcast [8]byte
	if d.rcr&R29RCRAM != 0 {
		mcast = d.mar
	}
	var mac [6]byte
	copy(mac[:], d.prom[:6])
	if !acceptFrame(frame, mac, d.rcr&R29RCRProm != 0, mcast) {
		return false
	}
	total := len(frame) + 4
	pages := (total + r29PageSize - 1) / r29PageSize
	// Check ring space (leave one page gap like the real chip).
	free := int(d.bnry) - int(d.curr)
	if free <= 0 {
		free += r29RxStop - r29RxStart
	}
	if pages >= free {
		d.isr |= R29ISROvw
		d.updateIRQ()
		return false
	}
	// Write header + frame, wrapping page by page.
	next := d.curr
	for i := 0; i < pages; i++ {
		next++
		if next >= r29RxStop {
			next = r29RxStart
		}
	}
	hdr := []byte{1, next, byte(total), byte(total >> 8)}
	d.ringWrite(int(d.curr)*r29PageSize, append(hdr, frame...))
	d.curr = next
	d.ledActivity = true
	d.isr |= R29ISRPrx
	d.updateIRQ()
	return true
}

// ringWrite copies data into packet memory starting at the absolute
// on-chip address, wrapping within the receive ring.
func (d *RTL8029) ringWrite(addr int, data []byte) {
	for _, b := range data {
		idx := addr - r29FirstPage*r29PageSize
		if idx >= 0 && idx < len(d.mem) {
			d.mem[idx] = b
		}
		addr++
		if addr >= r29RxStop*r29PageSize {
			addr = r29RxStart * r29PageSize
		}
	}
}

// TxFrames implements Model.
func (d *RTL8029) TxFrames() [][]byte {
	out := d.tx
	d.tx = nil
	return out
}

// StatusReport implements Model.
func (d *RTL8029) StatusReport() Status {
	var s Status
	copy(s.MAC[:], d.prom[:6])
	s.Promiscuous = d.rcr&R29RCRProm != 0
	s.FullDuplex = d.tcr&R29TCRFdx != 0
	s.RxEnabled = d.cr&R29CRStart != 0
	s.TxEnabled = d.cr&R29CRStart != 0
	s.LEDOn = d.ledActivity
	s.MulticastHash = d.mar
	return s
}
