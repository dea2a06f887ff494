package nic

import "revnic/internal/hw"

// SBLK100 models a simple block-transfer storage-style controller —
// the corpus-growth device beyond the four NICs (§5.2's generality
// claim: the approach reverse-engineers register protocols, not
// Ethernet specifically). The protocol is deliberately un-NIC-like:
// an ATA-flavoured command/status pair, an LBA register file, a
// sector-count register and a 16-bit data window with an
// auto-incrementing internal pointer. Outbound payloads are written
// as "blocks" (WRITE_BEGIN / data stream / WRITE_COMMIT) and inbound
// payloads are drained one record at a time (READ_NEXT / data stream
// / READ_DONE), so the same Model interface used by the NIC harness
// applies: TxFrames returns committed writes, InjectRX queues
// records for the driver to read.
//
//	0x00 STATUS (RO)  bit0 READY, bit1 DRQ, bit2 STARTED
//	0x01 CMD    (WO)
//	0x02 SECCNT
//	0x04..0x07 LBA0..LBA3
//	0x08 DATA   (16-bit window, auto-increment)
//	0x0A IST    bit0 WRITE_DONE (W1C), bit1 READ_READY, bit2 ERROR (W1C)
//	0x0B IMR
//	0x0C CTL    bit0 START
//	0x0D SCRATCH
const (
	SBLKStatus  = 0x00
	SBLKCmd     = 0x01
	SBLKSecCnt  = 0x02
	SBLKLBA0    = 0x04
	SBLKData    = 0x08
	SBLKIST     = 0x0A
	SBLKIMR     = 0x0B
	SBLKCtl     = 0x0C
	SBLKScratch = 0x0D
)

// SBLK100 status bits.
const (
	SBLKStatReady   = 1 << 0
	SBLKStatDRQ     = 1 << 1
	SBLKStatStarted = 1 << 2
)

// SBLK100 commands.
const (
	SBLKCmdIdentify    = 0x10
	SBLKCmdReadNext    = 0x20
	SBLKCmdReadDone    = 0x21
	SBLKCmdWriteBegin  = 0x30
	SBLKCmdWriteCommit = 0x31
)

// SBLK100 interrupt bits.
const (
	SBLKIntWriteDone = 1 << 0
	SBLKIntReadReady = 1 << 1
	SBLKIntError     = 1 << 2
)

// sblkQueueDepth bounds the inbound record queue, like a bounded
// completion ring.
const sblkQueueDepth = 8

// SBLK100 models the block controller.
type SBLK100 struct {
	hw.NopDevice
	line *hw.IRQLine

	seccnt  byte
	lba     [4]byte
	ist     byte
	imr     byte
	ctl     byte
	scratch byte

	rdBuf []byte // DATA reads stream from here
	rdPtr int
	wrBuf [2 + MaxFrame]byte // DATA writes stream into here
	wrPtr int

	rxq   [][]byte
	irqUp bool
	tx    [][]byte
	// lbas records the LBA register file at each commit, so tests can
	// observe the driver's block-addressing behaviour.
	lbas   []uint32
	serial [6]byte
}

// NewSBLK100 builds the model; the 6-byte serial doubles as the MAC
// the harness's Status report expects.
func NewSBLK100(line *hw.IRQLine, serial [6]byte) *SBLK100 {
	d := &SBLK100{NopDevice: hw.NopDevice{DevName: "sblk100"}, line: line, serial: serial}
	d.Reset()
	return d
}

// Reuse implements Model; the controller has no DMA, so mem is
// unused. It clears the write buffer too, which Reset keeps.
func (d *SBLK100) Reuse(line *hw.IRQLine, _ hw.MemBus) {
	*d = SBLK100{NopDevice: d.NopDevice, line: line, serial: d.serial}
	d.Reset()
}

// Reset implements hw.Device.
func (d *SBLK100) Reset() {
	d.seccnt = 0
	d.lba = [4]byte{}
	d.ist, d.imr, d.ctl, d.scratch = 0, 0, 0, 0
	d.rdBuf, d.rdPtr = nil, 0
	d.wrPtr = 0
	d.rxq = nil
	d.tx = nil
	d.lbas = nil
	d.updateIRQ()
}

func (d *SBLK100) updateIRQ() {
	up := d.ist&d.imr != 0
	if up && !d.irqUp {
		d.line.Assert()
	} else if !up && d.irqUp {
		d.line.Deassert()
	}
	d.irqUp = up
}

// PortRead implements hw.Device.
func (d *SBLK100) PortRead(off uint32, size int) uint32 {
	switch off {
	case SBLKStatus:
		st := uint32(SBLKStatReady)
		if d.rdPtr < len(d.rdBuf) {
			st |= SBLKStatDRQ
		}
		if d.ctl&1 != 0 {
			st |= SBLKStatStarted
		}
		return st
	case SBLKSecCnt:
		return uint32(d.seccnt)
	case SBLKLBA0, SBLKLBA0 + 1, SBLKLBA0 + 2, SBLKLBA0 + 3:
		return readBytes(d.lba[:], off-SBLKLBA0, size)
	case SBLKData:
		return d.dataRead(size)
	case SBLKIST:
		return uint32(d.ist)
	case SBLKIMR:
		return uint32(d.imr)
	case SBLKCtl:
		return uint32(d.ctl)
	case SBLKScratch:
		return uint32(d.scratch)
	}
	return 0
}

// PortWrite implements hw.Device.
func (d *SBLK100) PortWrite(off uint32, size int, v uint32) {
	switch off {
	case SBLKCmd:
		d.command(byte(v))
	case SBLKSecCnt:
		d.seccnt = byte(v)
	case SBLKLBA0, SBLKLBA0 + 1, SBLKLBA0 + 2, SBLKLBA0 + 3:
		writeBytes(d.lba[:], off-SBLKLBA0, size, v)
	case SBLKData:
		d.dataWrite(v, size)
	case SBLKIST:
		// Bits 0 and 2 are write-one-to-clear; READ_READY is managed
		// by the device itself (cleared when the queue drains).
		d.ist &^= byte(v) & (SBLKIntWriteDone | SBLKIntError)
		d.updateIRQ()
	case SBLKIMR:
		d.imr = byte(v)
		d.updateIRQ()
	case SBLKCtl:
		d.ctl = byte(v)
	case SBLKScratch:
		d.scratch = byte(v)
	}
}

func (d *SBLK100) dataRead(size int) uint32 {
	var v uint32
	for i := 0; i < size; i++ {
		if d.rdPtr < len(d.rdBuf) {
			v |= uint32(d.rdBuf[d.rdPtr]) << (8 * i)
			d.rdPtr++
		}
	}
	return v
}

func (d *SBLK100) dataWrite(v uint32, size int) {
	for i := 0; i < size; i++ {
		if d.wrPtr < len(d.wrBuf) {
			d.wrBuf[d.wrPtr] = byte(v >> (8 * i))
			d.wrPtr++
		}
	}
}

func (d *SBLK100) command(cmd byte) {
	switch cmd {
	case SBLKCmdIdentify:
		// 32-byte identify block: serial at 0, "SBLK" magic at 8,
		// queue depth at 12.
		blk := make([]byte, 32)
		copy(blk, d.serial[:])
		copy(blk[8:], "SBLK")
		blk[12] = sblkQueueDepth
		d.rdBuf, d.rdPtr = blk, 0
	case SBLKCmdReadNext:
		if len(d.rxq) == 0 {
			d.rdBuf, d.rdPtr = []byte{0, 0}, 0
			return
		}
		rec := d.rxq[0]
		blk := make([]byte, 2+len(rec))
		blk[0], blk[1] = byte(len(rec)), byte(len(rec)>>8)
		copy(blk[2:], rec)
		d.rdBuf, d.rdPtr = blk, 0
	case SBLKCmdReadDone:
		if len(d.rxq) > 0 {
			d.rxq = d.rxq[1:]
		}
		if len(d.rxq) == 0 {
			d.ist &^= SBLKIntReadReady
			d.updateIRQ()
		}
	case SBLKCmdWriteBegin:
		d.wrPtr = 0
	case SBLKCmdWriteCommit:
		d.commit()
	}
}

// Committed block layout: bytes 0-1 little-endian payload length,
// payload from byte 2.
func (d *SBLK100) commit() {
	n := int(d.wrBuf[0]) | int(d.wrBuf[1])<<8
	if d.ctl&1 == 0 || n < MinFrame || n > MaxFrame || 2+n > d.wrPtr {
		d.ist |= SBLKIntError
		d.updateIRQ()
		return
	}
	rec := make([]byte, n)
	copy(rec, d.wrBuf[2:2+n])
	d.tx = append(d.tx, rec)
	d.lbas = append(d.lbas, uint32(d.lba[0])|uint32(d.lba[1])<<8|
		uint32(d.lba[2])<<16|uint32(d.lba[3])<<24)
	d.ist |= SBLKIntWriteDone
	d.updateIRQ()
}

// InjectRX implements Model: an inbound record enters the read queue.
// There is no address filtering — a block controller carries opaque
// payloads — so acceptance depends only on the device being started
// and the queue having room.
func (d *SBLK100) InjectRX(frame []byte) bool {
	if d.ctl&1 == 0 || len(frame) < MinFrame || len(frame) > MaxFrame {
		return false
	}
	if len(d.rxq) >= sblkQueueDepth {
		return false
	}
	rec := make([]byte, len(frame))
	copy(rec, frame)
	d.rxq = append(d.rxq, rec)
	d.ist |= SBLKIntReadReady
	d.updateIRQ()
	return true
}

// TxFrames implements Model.
func (d *SBLK100) TxFrames() [][]byte {
	out := d.tx
	d.tx = nil
	return out
}

// CommitLBAs returns the LBA register values captured at each commit
// since the last call.
func (d *SBLK100) CommitLBAs() []uint32 {
	out := d.lbas
	d.lbas = nil
	return out
}

// StatusReport implements Model. The serial stands in for the MAC;
// NIC-specific rows (promiscuous, duplex, multicast) are always
// false for a block controller.
func (d *SBLK100) StatusReport() Status {
	return Status{
		MAC:       d.serial,
		RxEnabled: d.ctl&1 != 0,
		TxEnabled: d.ctl&1 != 0,
	}
}
