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
// with every hardware access it performs recorded. An Oracle holds one
// rig per side for each fuzz schedule and each equivalence check; the
// check's feature probes build synthesized rigs of their own.
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

// EquivalenceWorkload returns the §5.2 workload, the schedule
// CheckEquivalence runs through the Oracle; halt follows its last step.
func EquivalenceWorkload() []Step {
	return []Step{
		{Op: "query", OID: guestos.OIDMACAddress, Val: 6},
		{Op: "set", OID: guestos.OIDPacketFilter, Val: guestos.FilterDirected | guestos.FilterBroadcast | guestos.FilterMulticast},
		{Op: "set", OID: guestos.OIDMulticastList, Data: []byte{
			0x01, 0x00, 0x5E, 0x00, 0x00, 0x01,
			0x01, 0x00, 0x5E, 0x7F, 0xFF, 0xFA,
		}},
		{Op: "send", Size: 64, Bcast: true},
		{Op: "send", Size: 512, Bcast: true},
		{Op: "send", Size: 1514, Bcast: true},
		{Op: "recv", Size: 96},
		{Op: "recv", Size: 1200},
		{Op: "set", OID: guestos.OIDPacketFilter, Val: guestos.FilterPromiscuous | guestos.FilterDirected},
		{Op: "set", OID: guestos.OIDFullDuplex, Val: 1},
		{Op: "timer"},
	}
}

// CheckEquivalence runs the §5.2 methodology for one driver: run the
// EquivalenceWorkload on the original and the synthesized driver, on
// identical device models, through the Oracle, then probe each Table 2
// feature on the synthesized driver. An error on either side, and
// unexplored code on the synthesized one, is an error; any other
// difference is reported in IOTraceEqual and FirstDivergence, and the
// op counts are then those of the traces up to it.
func CheckEquivalence(info *drivers.Info, rev *Reversed, osKind template.OS) (*FeatureReport, error) {
	mac := [6]byte{0x02, 0x5E, 0x44, 0x33, 0x22, 0x11}
	code := synthdrv.NewCode(rev.Graph)
	o, err := NewOracle(info, ir.NewImage(info.Program), code, osKind, mac, nil)
	if err != nil {
		return nil, err
	}

	// snap is the synthesized device's status after the feature sets,
	// before the timer and halt (which legitimately clears receiver
	// state on some chips).
	var snap nic.Status
	w := EquivalenceWorkload()
	ok := o.Init()
	for i := 0; ok && i < len(w); i++ {
		if w[i].Op == "timer" {
			snap = o.Synth.Dev.StatusReport()
		}
		ok = o.Step(i, w[i])
	}
	o.Halt(len(w))

	rep := &FeatureReport{
		Driver:       info.Name,
		OrigOps:      len(o.Orig.Trace()),
		SynthOps:     len(o.Synth.Trace()),
		IOTraceEqual: o.Mismatch == nil,
	}
	if o.Mismatch != nil {
		rep.FirstDivergence = o.Mismatch.String()
	}
	// Functional results on the synthesized side: the final status
	// confirms clean shutdown, and the frames indicated up the stack
	// must be the ones received, none dropped.
	var inbound [][]byte
	for _, st := range w {
		if st.Op == "recv" {
			inbound = append(inbound, st.Frame(nil, mac))
		}
	}
	rt := o.Synth.RT
	rep.InitShutdown = !o.Synth.Dev.StatusReport().RxEnabled
	rep.SendReceive = slices.EqualFunc(rt.Received, inbound, bytes.Equal) &&
		o.Orig.OS.SendCompletes == rt.SendCompletes
	rep.Multicast = snap.MulticastHash != [8]byte{}
	rep.Promiscuous = snap.Promiscuous
	rep.FullDuplex = snap.FullDuplex
	rep.GetSetMAC = snap.MAC == mac
	// Close the rigs before the feature probes, which reuse their
	// guest memory.
	o.Close()
	switch {
	case o.OrigErr != nil:
		return nil, fmt.Errorf("original run: %w", o.OrigErr)
	case o.SynthErr != nil:
		return nil, fmt.Errorf("synthesized run: %w", o.SynthErr)
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
		rep.WakeOnLAN, rep.LED = "FAIL", "FAIL"
		if probeFeature(code, info, mac, func(st nic.Status) bool { return st.WOLEnabled && st.LEDOn },
			guestos.OIDEnableWOL, guestos.OIDLEDControl) == nil {
			rep.WakeOnLAN, rep.LED = "yes", "yes"
		}
	case "AMD PCNet":
		rep.WakeOnLAN = "N/T" // code exercised, virtual HW can't wake
	case "SMSC 91C111":
		if probeFeature(code, info, mac, func(st nic.Status) bool { return st.LEDOn },
			guestos.OIDLEDControl) == nil {
			rep.LED = "yes"
		}
	}
	return rep, nil
}

// probeFeature turns on each OID in oids through a fresh synthesized
// driver of code and checks that the device status reflects them.
func probeFeature(code *synthdrv.Code, info *drivers.Info, mac [6]byte, reflected func(nic.Status) bool, oids ...uint32) error {
	rig, err := NewSynthRig(code, info, template.Windows, mac, nil)
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
