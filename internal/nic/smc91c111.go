package nic

import "revnic/internal/hw"

// SMSC 91C111 register map. The model follows the real chip's
// signature feature: a 16-byte I/O window whose meaning depends on
// the bank select register at offset 0x0E, with an on-chip MMU
// managing packet buffers reached through a pointer/data port pair.
// There is no bus-master DMA and no Wake-on-LAN (Table 2: N/A), and
// the chip drives status LEDs from a config register.
//
//	bank 0: 0x00 TCR, 0x02 RCR
//	bank 1: 0x00..0x05 IAR (station MAC), 0x06 CONFIG
//	bank 2: 0x00 MMUCR, 0x02 PNR, 0x04 FIFO, 0x06 PTR, 0x08 DATA,
//	        0x0A IST (W1C), 0x0C MSK
//	bank 3: 0x00..0x07 MT (multicast table)
//	all banks: 0x0E BSR
const (
	S91BSR = 0x0E

	S91TCR = 0x00 // bank 0
	S91RCR = 0x02 // bank 0

	S91IAR0   = 0x00 // bank 1
	S91CONFIG = 0x06 // bank 1

	S91MMUCR = 0x00 // bank 2
	S91PNR   = 0x02
	S91FIFO  = 0x04
	S91PTR   = 0x06
	S91DATA  = 0x08
	S91IST   = 0x0A
	S91MSK   = 0x0C

	S91MT0 = 0x00 // bank 3
)

// 91C111 TCR bits.
const (
	S91TCREnable  = 1 << 0
	S91TCRFullDup = 1 << 7
)

// 91C111 RCR bits.
const (
	S91RCREnable = 1 << 0
	S91RCRProm   = 1 << 1
)

// 91C111 CONFIG bits.
const (
	S91ConfigLEDA = 1 << 0
)

// 91C111 MMU commands (written to MMUCR).
const (
	S91MMUAlloc    = 1
	S91MMUReset    = 2
	S91MMUEnqueue  = 4
	S91MMURemoveRx = 5
)

// 91C111 interrupt status bits.
const (
	S91IntRCV   = 1 << 0
	S91IntTX    = 1 << 1
	S91IntAlloc = 1 << 3
)

// s91NumPackets is the number of on-chip packet buffers; each holds
// one maximal frame plus a 4-byte control header (length).
const (
	s91NumPackets = 8
	s91PacketSize = 2048
)

// SMC91C111 models the SMSC LAN91C111.
type SMC91C111 struct {
	hw.NopDevice
	line *hw.IRQLine

	bank   byte
	tcr    uint16
	rcr    uint16
	iar    [6]byte
	config uint16
	mt     [8]byte

	mmucr uint16
	pnr   byte // allocated packet number (tx side)
	ptr   uint16
	ist   byte
	msk   byte

	packets   [s91NumPackets][s91PacketSize]byte
	allocated [s91NumPackets]bool
	rxFIFO    []byte // packet numbers queued for the driver

	irqUp bool
	tx    [][]byte
	mac   [6]byte
}

// NewSMC91C111 builds the model with the given station MAC.
func NewSMC91C111(line *hw.IRQLine, mac [6]byte) *SMC91C111 {
	d := &SMC91C111{NopDevice: hw.NopDevice{DevName: "smc91c111"}, line: line, mac: mac}
	d.Reset()
	return d
}

// Reuse implements Model; the chip has no DMA, so mem is unused. It
// clears the on-chip packet buffers too, which Reset keeps.
func (d *SMC91C111) Reuse(line *hw.IRQLine, _ hw.MemBus) {
	*d = SMC91C111{NopDevice: d.NopDevice, line: line, mac: d.mac}
	d.Reset()
}

// Reset implements hw.Device.
func (d *SMC91C111) Reset() {
	d.bank = 0
	d.tcr, d.rcr = 0, 0
	d.iar = d.mac
	d.config = 0
	d.mt = [8]byte{}
	d.mmucr, d.pnr, d.ptr = 0, 0, 0
	d.ist, d.msk = 0, 0
	d.allocated = [s91NumPackets]bool{}
	d.rxFIFO = nil
	d.tx = nil
	d.updateIRQ()
}

func (d *SMC91C111) updateIRQ() {
	up := d.ist&d.msk != 0
	if up && !d.irqUp {
		d.line.Assert()
	} else if !up && d.irqUp {
		d.line.Deassert()
	}
	d.irqUp = up
}

// PortRead implements hw.Device.
func (d *SMC91C111) PortRead(off uint32, size int) uint32 {
	if off == S91BSR {
		return uint32(d.bank)
	}
	switch d.bank {
	case 0:
		switch off {
		case S91TCR:
			return uint32(d.tcr)
		case S91RCR:
			return uint32(d.rcr)
		}
	case 1:
		if off < 6 {
			return readBytes(d.iar[:], off, size)
		}
		if off == S91CONFIG {
			return uint32(d.config)
		}
	case 2:
		switch off {
		case S91MMUCR:
			return uint32(d.mmucr)
		case S91PNR:
			return uint32(d.pnr)
		case S91FIFO:
			// Low byte: head of RX FIFO; 0x80 flag when empty.
			if len(d.rxFIFO) == 0 {
				return 0x80
			}
			return uint32(d.rxFIFO[0])
		case S91PTR:
			return uint32(d.ptr)
		case S91DATA:
			return d.dataRead(size)
		case S91IST:
			return uint32(d.ist)
		case S91MSK:
			return uint32(d.msk)
		}
	case 3:
		if off < 8 {
			return readBytes(d.mt[:], off, size)
		}
	}
	return 0
}

// PortWrite implements hw.Device.
func (d *SMC91C111) PortWrite(off uint32, size int, v uint32) {
	if off == S91BSR {
		d.bank = byte(v) & 3
		return
	}
	switch d.bank {
	case 0:
		switch off {
		case S91TCR:
			d.tcr = uint16(v)
		case S91RCR:
			d.rcr = uint16(v)
		}
	case 1:
		if off < 6 {
			writeBytes(d.iar[:], off, size, v)
		} else if off == S91CONFIG {
			d.config = uint16(v)
		}
	case 2:
		switch off {
		case S91MMUCR:
			d.mmuCommand(uint16(v))
		case S91PNR:
			d.pnr = byte(v)
		case S91PTR:
			d.ptr = uint16(v)
		case S91DATA:
			d.dataWrite(v, size)
		case S91IST:
			d.ist &^= byte(v)
			d.updateIRQ()
		case S91MSK:
			d.msk = byte(v)
			d.updateIRQ()
		}
	case 3:
		if off < 8 {
			writeBytes(d.mt[:], off, size, v)
		}
	}
}

// current packet selected for DATA access: the TX packet in PNR, or
// the head of the RX FIFO when the driver reads a received frame.
// Real hardware selects via PNR with an RX/TX bit; the model uses
// PNR directly (the driver copies the FIFO number into PNR first).
func (d *SMC91C111) dataRead(size int) uint32 {
	var v uint32
	p := int(d.pnr) % s91NumPackets
	for i := 0; i < size; i++ {
		if int(d.ptr) < s91PacketSize {
			v |= uint32(d.packets[p][d.ptr]) << (8 * i)
		}
		d.ptr++
	}
	return v
}

func (d *SMC91C111) dataWrite(v uint32, size int) {
	p := int(d.pnr) % s91NumPackets
	for i := 0; i < size; i++ {
		if int(d.ptr) < s91PacketSize {
			d.packets[p][d.ptr] = byte(v >> (8 * i))
		}
		d.ptr++
	}
}

func (d *SMC91C111) mmuCommand(cmd uint16) {
	d.mmucr = cmd
	switch cmd {
	case S91MMUAlloc:
		for i := range d.allocated {
			if !d.allocated[i] {
				d.allocated[i] = true
				d.pnr = byte(i)
				d.ist |= S91IntAlloc
				d.updateIRQ()
				return
			}
		}
		// Allocation failure: no interrupt, driver polls.
	case S91MMUReset:
		d.allocated = [s91NumPackets]bool{}
		d.rxFIFO = nil
	case S91MMUEnqueue:
		d.transmit(int(d.pnr) % s91NumPackets)
	case S91MMURemoveRx:
		if len(d.rxFIFO) > 0 {
			d.allocated[d.rxFIFO[0]] = false
			d.rxFIFO = d.rxFIFO[1:]
			if len(d.rxFIFO) == 0 {
				d.ist &^= S91IntRCV
				d.updateIRQ()
			}
		}
	}
}

// Packet buffer layout: bytes 0-1 little-endian frame length, frame
// data from byte 4 (mirroring the chip's status+count header).
func (d *SMC91C111) transmit(p int) {
	if d.tcr&S91TCREnable == 0 {
		return
	}
	n := int(d.packets[p][0]) | int(d.packets[p][1])<<8
	if n < MinFrame || n > MaxFrame {
		return
	}
	frame := make([]byte, n)
	copy(frame, d.packets[p][4:4+n])
	d.tx = append(d.tx, frame)
	d.allocated[p] = false
	d.ist |= S91IntTX
	d.updateIRQ()
}

// InjectRX implements Model: the frame is stored in a fresh on-chip
// packet buffer and its number pushed onto the RX FIFO.
func (d *SMC91C111) InjectRX(frame []byte) bool {
	if d.rcr&S91RCREnable == 0 || len(frame) < MinFrame || len(frame) > MaxFrame {
		return false
	}
	if !acceptFrame(frame, d.iar, d.rcr&S91RCRProm != 0, d.mt) {
		return false
	}
	slot := -1
	for i := range d.allocated {
		if !d.allocated[i] {
			slot = i
			break
		}
	}
	if slot < 0 {
		return false
	}
	d.allocated[slot] = true
	d.packets[slot][0] = byte(len(frame))
	d.packets[slot][1] = byte(len(frame) >> 8)
	copy(d.packets[slot][4:], frame)
	d.rxFIFO = append(d.rxFIFO, byte(slot))
	d.ist |= S91IntRCV
	d.updateIRQ()
	return true
}

// TxFrames implements Model.
func (d *SMC91C111) TxFrames() [][]byte {
	out := d.tx
	d.tx = nil
	return out
}

// StatusReport implements Model.
func (d *SMC91C111) StatusReport() Status {
	return Status{
		MAC:           d.iar,
		Promiscuous:   d.rcr&S91RCRProm != 0,
		FullDuplex:    d.tcr&S91TCRFullDup != 0,
		LEDOn:         d.config&S91ConfigLEDA != 0,
		RxEnabled:     d.rcr&S91RCREnable != 0,
		TxEnabled:     d.tcr&S91TCREnable != 0,
		MulticastHash: d.mt,
	}
}
