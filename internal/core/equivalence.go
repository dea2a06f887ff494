package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"revnic/internal/drivers"
	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/nic"
	"revnic/internal/synthdrv"
	"revnic/internal/template"
	"revnic/internal/vm"
)

// IOEvent is one hardware access in an equivalence trace.
type IOEvent = vm.IOEvent

// FeatureReport is one Table 2 row: which functionality the
// synthesized driver reproduces, verified by comparing hardware I/O
// traces of the original and synthesized drivers under identical
// workloads (§5.2).
type FeatureReport struct {
	Driver string

	InitShutdown bool
	SendReceive  bool
	Multicast    bool
	GetSetMAC    bool
	Promiscuous  bool
	FullDuplex   bool
	DMA          string // "yes", "N/A"
	WakeOnLAN    string // "yes", "N/A", "N/T"
	LED          string // "yes", "N/T"

	// IOTraceEqual is the byte-level comparison of the two traces.
	IOTraceEqual bool
	// OrigOps and SynthOps count the hardware operations compared.
	OrigOps  int
	SynthOps int
	// FirstDivergence describes the first mismatch, if any.
	FirstDivergence string
}

// NewDevice builds the device model matching a driver. mem supplies
// DMA access for bus-master chips.
func NewDevice(name string, line *hw.IRQLine, mem hw.MemBus, mac [6]byte) (nic.Model, error) {
	switch name {
	case "RTL8029":
		return nic.NewRTL8029(line, mac), nil
	case "RTL8139":
		return nic.NewRTL8139(line, mem, mac), nil
	case "AMD PCNet":
		return nic.NewPCNet(line, mem, mac), nil
	case "SMSC 91C111":
		return nic.NewSMC91C111(line, mac), nil
	case "SBLK100":
		return nic.NewSBLK100(line, mac), nil
	}
	return nil, fmt.Errorf("core: no device model for %q", name)
}

// ShellConfig returns the standard shell-device descriptor for a
// driver (what the developer reads out of the device manager).
func ShellConfig(d *drivers.Info) hw.PCIConfig {
	return hw.PCIConfig{
		VendorID: d.VendorID, DeviceID: d.DeviceID,
		IOBase: 0xC000, IOSize: 0x100, IRQLine: 11,
	}
}

// equivalence workload: the operation sequence applied identically to
// both drivers.
type eqOps struct {
	mac           [6]byte
	sends         [][]byte
	inbound       [][]byte
	mcast         []byte
	filterPromisc []byte
	filterNormal  []byte
}

func makeEqOps(mac [6]byte) eqOps {
	frame := func(dst [6]byte, n int) []byte {
		f := make([]byte, n)
		copy(f, dst[:])
		copy(f[6:], mac[:])
		f[12], f[13] = 0x08, 0x00
		for i := 14; i < n; i++ {
			f[i] = byte(i * 3)
		}
		return f
	}
	bcast := [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	return eqOps{
		mac:     mac,
		sends:   [][]byte{frame(bcast, 64), frame(bcast, 512), frame(bcast, 1514)},
		inbound: [][]byte{frame(mac, 96), frame(mac, 1200)},
		mcast: []byte{
			0x01, 0x00, 0x5E, 0x00, 0x00, 0x01,
			0x01, 0x00, 0x5E, 0x7F, 0xFF, 0xFA,
		},
		filterPromisc: []byte{guestos.FilterPromiscuous | guestos.FilterDirected, 0, 0, 0},
		filterNormal:  []byte{guestos.FilterDirected | guestos.FilterBroadcast | guestos.FilterMulticast, 0, 0, 0},
	}
}

// runOriginal exercises the original binary driver on its device,
// recording the I/O trace.
func runOriginal(info *drivers.Info, ops eqOps) ([]IOEvent, nic.Model, *guestos.OS, error) {
	rig, err := NewOriginalRig(info, ir.NewImage(info.Program), ops.mac, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	_, err = driveWorkload(rig.Side, rig.Dev, ops)
	tr := slices.Clone(rig.Trace())
	rig.Close()
	return tr, rig.Dev, rig.OS, err
}

// runSynthesized exercises the synthesized driver on a fresh device
// of the same type, recording its I/O trace.
func runSynthesized(rev *Reversed, info *drivers.Info, osKind template.OS, ops eqOps) ([]IOEvent, nic.Status, nic.Model, *template.Runtime, error) {
	rig, err := NewSynthRig(synthdrv.NewCode(rev.Graph), info, osKind, ops.mac, nil)
	if err != nil {
		return nil, nic.Status{}, nil, nil, err
	}
	snap, err := driveWorkload(rig.Side, rig.Dev, ops)
	tr := slices.Clone(rig.Trace())
	rig.Close()
	return tr, snap, rig.Dev, rig.RT, err
}

// Side abstracts "a driver with an OS around it" so an identical
// workload can drive the original binary and the synthesized code:
// *guestos.OS and *synthdrv.Driver both satisfy it.
type Side interface {
	Initialize() error
	Send(frame []byte) (uint32, error)
	PumpInterrupts(max int) (int, error)
	Query(oid, n uint32) (uint32, []byte, error)
	Set(oid uint32, in []byte) (uint32, error)
	FireTimer() error
	Halt() error
}

// Rig is one executable driver instance — the original binary under
// the guest OS, or the synthesized driver under the template runtime
// — on a fresh VM machine bound to a device model in power-on state,
// with every hardware access it performs recorded. The differential
// fuzzer builds one rig per side per schedule; the equivalence checker
// builds one pair per driver.
// Everything in a rig is built fresh except its guest memory, which
// comes zeroed from the process-wide hw.RAM pool, its trace buffer,
// which comes empty from a bounded free list, what the caller shares
// (the original side's translation image, the synthesized side's code
// index) and, when the caller passes a ModelPool, its device model;
// Close returns the memory, the trace buffer and a pooled model.
type Rig struct {
	Side Side
	// M is the machine the driver runs on.
	M   *vm.Machine
	Dev nic.Model
	// OS is set on original-side rigs.
	OS *guestos.OS
	// RT and Drv are set on synthesized-side rigs.
	RT   *template.Runtime
	Drv  *synthdrv.Driver
	pool *ModelPool
}

// Trace returns the hardware accesses recorded so far, the machine's
// own trace. It is valid until Close, which recycles its buffer; copy
// what must outlive the rig.
func (r *Rig) Trace() []IOEvent { return r.M.Trace }

// Close returns the rig's guest memory and trace buffer for reuse,
// and its device model to the ModelPool it came from, if any. The
// driver must not run afterwards and Trace is empty; the OS and
// runtime stay readable, and so does the device model of a rig built
// without a pool. A rig that is never closed is left to the garbage
// collector.
func (r *Rig) Close() {
	r.M.RAM.Free()
	freeTrace(r.M.Trace)
	r.M.Trace = nil
	r.pool.put(r.Dev)
}

// ModelPool is a free list of the device models of one driver and
// station MAC. A rig built with it takes a model from it, reset in
// place by nic.Model.Reuse, and its Close puts the model back, so the
// list never holds more models than there were rigs alive at the
// same time. Share one pool only among rigs of the same driver and
// MAC. It is safe for concurrent use.
type ModelPool struct {
	mu   sync.Mutex
	free []nic.Model
}

// device returns a model of the named driver wired to line and mem:
// a recycled one from p when there is one, else a new one. A nil p
// always builds a new one.
func (p *ModelPool) device(name string, line *hw.IRQLine, mem hw.MemBus, mac [6]byte) (nic.Model, error) {
	if p != nil {
		p.mu.Lock()
		var m nic.Model
		if n := len(p.free); n > 0 {
			m = p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
		}
		p.mu.Unlock()
		if m != nil {
			m.Reuse(line, mem)
			return m, nil
		}
	}
	return NewDevice(name, line, mem, mac)
}

func (p *ModelPool) put(m nic.Model) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// Bounds of the trace-buffer free list: at most maxPooledTraces
// buffers wait for reuse, and a buffer grown past maxPooledTraceOps
// events is left to the garbage collector, so one long schedule does
// not pin its memory for the rest of the process.
const (
	maxPooledTraces   = 16
	maxPooledTraceOps = 1 << 14
)

// tracePool is the process-wide free list of empty trace buffers.
var tracePool struct {
	mu   sync.Mutex
	free [][]IOEvent
}

// newTrace returns an empty trace buffer, reusing a freed one when
// one is available.
func newTrace() []IOEvent {
	var b []IOEvent
	tracePool.mu.Lock()
	if n := len(tracePool.free); n > 0 {
		b = tracePool.free[n-1]
		tracePool.free[n-1] = nil
		tracePool.free = tracePool.free[:n-1]
	}
	tracePool.mu.Unlock()
	return b
}

// freeTrace puts a trace buffer on the free list, unless the list is
// full or the buffer is over the size cap.
func freeTrace(b []IOEvent) {
	if b == nil || cap(b) > maxPooledTraceOps {
		return
	}
	tracePool.mu.Lock()
	if len(tracePool.free) < maxPooledTraces {
		tracePool.free = append(tracePool.free, b[:0])
	}
	tracePool.mu.Unlock()
}

// NewOriginalRig loads the original binary driver, translated through
// img, into a fresh VM attached to a device model in power-on state,
// drawn from models when it is not nil. Every rig of one driver may
// share one img: the harness builds it once.
func NewOriginalRig(info *drivers.Info, img *ir.Image, mac [6]byte, models *ModelPool) (*Rig, error) {
	bus := hw.NewBus()
	m := vm.New(bus)
	cfgp := ShellConfig(info)
	dev, err := models.device(info.Name, &bus.Line, m, mac)
	if err != nil {
		return nil, err
	}
	bus.Attach(dev.(hw.Device), cfgp)
	if err := m.Load(img); err != nil {
		return nil, err
	}
	os := guestos.New(m, cfgp)
	m.Trace = newTrace()
	rig := &Rig{Side: os, M: m, Dev: dev, OS: os, pool: models}
	if err := os.LoadDriver(info.Program.Base); err != nil {
		return nil, err
	}
	return rig, nil
}

// NewSynthRig instantiates the synthesized driver of an indexed
// recovered graph under the osKind template runtime, against a device
// model of the driver's type in power-on state, drawn from models
// when it is not nil.
func NewSynthRig(code *synthdrv.Code, info *drivers.Info, osKind template.OS, mac [6]byte, models *ModelPool) (*Rig, error) {
	bus := hw.NewBus()
	cfgp := ShellConfig(info)
	rt := template.NewRuntime(osKind, cfgp)
	d := synthdrv.New(code, rt, bus)
	dev, err := models.device(info.Name, &bus.Line, d.M, mac)
	if err != nil {
		return nil, err
	}
	bus.Attach(dev.(hw.Device), cfgp)
	d.M.Trace = newTrace()
	return &Rig{Side: d, M: d.M, Dev: dev, RT: rt, Drv: d, pool: models}, nil
}

// driveWorkload applies the equivalence workload to one side. The
// returned status is snapshotted after the feature sets but before
// Halt (which legitimately clears receiver state on some chips).
func driveWorkload(s Side, dev nic.Model, ops eqOps) (nic.Status, error) {
	var snap nic.Status
	if err := s.Initialize(); err != nil {
		return snap, fmt.Errorf("initialize: %w", err)
	}
	if _, _, err := s.Query(guestos.OIDMACAddress, 6); err != nil {
		return snap, fmt.Errorf("query mac: %w", err)
	}
	if _, err := s.Set(guestos.OIDPacketFilter, ops.filterNormal); err != nil {
		return snap, fmt.Errorf("set filter: %w", err)
	}
	if _, err := s.Set(guestos.OIDMulticastList, ops.mcast); err != nil {
		return snap, fmt.Errorf("set multicast: %w", err)
	}
	for i, f := range ops.sends {
		if _, err := s.Send(f); err != nil {
			return snap, fmt.Errorf("send %d: %w", i, err)
		}
		if _, err := s.PumpInterrupts(16); err != nil {
			return snap, fmt.Errorf("pump after send %d: %w", i, err)
		}
	}
	for i, f := range ops.inbound {
		if !dev.InjectRX(f) {
			return snap, fmt.Errorf("device dropped inbound frame %d", i)
		}
		if _, err := s.PumpInterrupts(16); err != nil {
			return snap, fmt.Errorf("pump after rx %d: %w", i, err)
		}
	}
	if _, err := s.Set(guestos.OIDPacketFilter, ops.filterPromisc); err != nil {
		return snap, fmt.Errorf("set promisc: %w", err)
	}
	if _, err := s.Set(guestos.OIDFullDuplex, []byte{1, 0, 0, 0}); err != nil {
		return snap, fmt.Errorf("set duplex: %w", err)
	}
	snap = dev.StatusReport()
	if err := s.FireTimer(); err != nil {
		return snap, fmt.Errorf("timer: %w", err)
	}
	if err := s.Halt(); err != nil {
		return snap, fmt.Errorf("halt: %w", err)
	}
	return snap, nil
}

// CompareTraces compares two hardware I/O traces op by op, then by
// length. It returns ("", true) when they are identical, and a
// description of the first mismatch otherwise — the oracle shared by
// the equivalence checker and the differential fuzzer.
func CompareTraces(orig, synth []IOEvent) (string, bool) {
	n := len(orig)
	if len(synth) < n {
		n = len(synth)
	}
	for i := 0; i < n; i++ {
		if orig[i] != synth[i] {
			return fmt.Sprintf("op %d: orig %+v vs synth %+v", i, orig[i], synth[i]), false
		}
	}
	if len(orig) != len(synth) {
		return fmt.Sprintf("length: orig %d vs synth %d", len(orig), len(synth)), false
	}
	return "", true
}

// CheckEquivalence runs the §5.2 methodology for one driver: exercise
// the original and the synthesized driver with the same workload on
// identical device models and compare the hardware I/O traces, then
// probe each Table 2 feature on the synthesized driver.
func CheckEquivalence(info *drivers.Info, rev *Reversed, osKind template.OS) (*FeatureReport, error) {
	mac := [6]byte{0x02, 0x5E, 0x44, 0x33, 0x22, 0x11}
	ops := makeEqOps(mac)

	origTrace, _, origOS, err := runOriginal(info, ops)
	if err != nil {
		return nil, fmt.Errorf("original run: %w", err)
	}
	synthTrace, snap, synthDev, rt, err := runSynthesized(rev, info, osKind, ops)
	if err != nil {
		return nil, fmt.Errorf("synthesized run: %w", err)
	}

	rep := &FeatureReport{
		Driver:   info.Name,
		OrigOps:  len(origTrace),
		SynthOps: len(synthTrace),
	}
	rep.FirstDivergence, rep.IOTraceEqual = CompareTraces(origTrace, synthTrace)

	// Functional results on the synthesized side. snap was taken
	// mid-workload (after the feature sets, before halt); the final
	// status confirms clean shutdown.
	final := synthDev.StatusReport()
	rep.InitShutdown = !final.RxEnabled // halted cleanly at the end
	rep.SendReceive = len(rt.Received) == len(ops.inbound)
	for i, f := range rt.Received {
		if i < len(ops.inbound) && !bytes.Equal(f, ops.inbound[i]) {
			rep.SendReceive = false
		}
	}
	rep.Multicast = snap.MulticastHash != [8]byte{}
	rep.Promiscuous = snap.Promiscuous
	rep.FullDuplex = snap.FullDuplex
	rep.GetSetMAC = snap.MAC == mac

	// Cross-check against the original side's OS observations.
	if origOS.SendCompletes != rt.SendCompletes {
		rep.SendReceive = false
	}

	// Chip-dependent rows.
	rep.DMA = "N/A"
	if info.HasDMA {
		rep.DMA = "yes"
	}
	rep.WakeOnLAN = "N/A"
	rep.LED = "N/T"
	switch info.Name {
	case "RTL8139":
		// Exercisable: set WOL and LED through the synthesized
		// driver and observe CONFIG1.
		if err := probeFeature(rev, info, mac, func(st nic.Status) bool { return st.WOLEnabled && st.LEDOn },
			guestos.OIDEnableWOL, guestos.OIDLEDControl); err == nil {
			rep.WakeOnLAN = "yes"
			rep.LED = "yes"
		} else {
			rep.WakeOnLAN = "FAIL"
			rep.LED = "FAIL"
		}
	case "AMD PCNet":
		rep.WakeOnLAN = "N/T" // code exercised, virtual HW can't wake
	case "SMSC 91C111":
		if err := probeFeature(rev, info, mac, func(st nic.Status) bool { return st.LEDOn },
			guestos.OIDLEDControl); err == nil {
			rep.LED = "yes"
		}
	}
	return rep, nil
}

// probeFeature turns on each OID in oids through a fresh synthesized
// driver and checks that the device status reflects them.
func probeFeature(rev *Reversed, info *drivers.Info, mac [6]byte, reflected func(nic.Status) bool, oids ...uint32) error {
	rig, err := NewSynthRig(synthdrv.NewCode(rev.Graph), info, template.Windows, mac, nil)
	if err != nil {
		return err
	}
	defer rig.Close()
	if err := rig.Side.Initialize(); err != nil {
		return err
	}
	for _, oid := range oids {
		if _, err := rig.Side.Set(oid, []byte{1, 0, 0, 0}); err != nil {
			return err
		}
	}
	if st := rig.Dev.StatusReport(); !reflected(st) {
		return fmt.Errorf("feature not reflected: %+v", st)
	}
	return nil
}
