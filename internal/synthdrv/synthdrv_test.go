package synthdrv

import (
	"bytes"
	"testing"

	"revnic/internal/cfg"
	"revnic/internal/drivers"
	"revnic/internal/hw"
	"revnic/internal/nic"
	"revnic/internal/symexec"
	"revnic/internal/template"
)

func recover8029(t *testing.T) *cfg.Graph {
	t.Helper()
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	eng := symexec.New(info.Program, symexec.Config{
		Seed: 21,
		Shell: hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
			IOBase: 0xC000, IOSize: 0x100, IRQLine: 11},
	})
	res, err := eng.Explore()
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Build(res.Collector)
}

func buildDriver(t *testing.T, g *cfg.Graph) (*Driver, nic.Model, *template.Runtime) {
	t.Helper()
	bus := hw.NewBus()
	cfgp := hw.PCIConfig{VendorID: 0x10EC, DeviceID: 0x8029, IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
	rt := template.NewRuntime(template.Linux, cfgp)
	d := New(NewCode(g), rt, bus)
	mac := [6]byte{0x02, 1, 2, 3, 4, 5}
	dev := nic.NewRTL8029(&bus.Line, mac)
	bus.Attach(dev, cfgp)
	return d, dev, rt
}

func TestSynthesizedDriverLifecycle(t *testing.T) {
	g := recover8029(t)
	d, dev, rt := buildDriver(t, g)

	if err := d.Initialize(); err != nil {
		t.Fatal(err)
	}
	if d.Ctx == 0 {
		t.Fatal("no context")
	}
	st := dev.StatusReport()
	if !st.RxEnabled {
		t.Fatal("device not started by synthesized init")
	}

	// Send: the frame must reach the wire byte-for-byte.
	frame := make([]byte, 200)
	copy(frame, nic.BroadcastMAC[:])
	copy(frame[6:], st.MAC[:])
	frame[12] = 0x08
	for i := 14; i < len(frame); i++ {
		frame[i] = byte(i * 11)
	}
	status, err := d.Send(frame)
	if err != nil || status != 0 {
		t.Fatalf("send: %d %v", status, err)
	}
	txs := dev.TxFrames()
	if len(txs) != 1 || !bytes.Equal(txs[0], frame) {
		t.Fatal("transmitted frame corrupt")
	}
	// Completion interrupt pending; pump it.
	if _, err := d.PumpInterrupts(4); err != nil {
		t.Fatal(err)
	}
	if rt.SendCompletes != 1 {
		t.Errorf("SendCompletes = %d", rt.SendCompletes)
	}

	// Receive.
	rx := make([]byte, 120)
	copy(rx, st.MAC[:])
	copy(rx[6:], []byte{2, 9, 9, 9, 9, 9})
	rx[12] = 0x08
	if !dev.InjectRX(rx) {
		t.Fatal("inject failed")
	}
	if _, err := d.PumpInterrupts(4); err != nil {
		t.Fatal(err)
	}
	if len(rt.Received) != 1 || !bytes.Equal(rt.Received[0], rx) {
		t.Fatal("indicated frame corrupt")
	}

	// Query MAC through the recovered query entry.
	stq, mac, err := d.Query(0x01010102, 6)
	if err != nil || stq != 0 || !bytes.Equal(mac, st.MAC[:]) {
		t.Fatalf("query mac: %v %x", err, mac)
	}

	if err := d.Halt(); err != nil {
		t.Fatal(err)
	}
	if dev.StatusReport().RxEnabled {
		t.Error("device still running after halt")
	}
	if d.M.Cycles == 0 || d.M.Blocks == 0 {
		t.Error("machine counters not advancing")
	}
}

func TestUnexploredErrorType(t *testing.T) {
	e := &ErrUnexplored{From: 0x10, To: 0x20}
	if e.Error() == "" {
		t.Error("empty error")
	}
	// A driver over an empty graph must hit unexplored immediately.
	bus := hw.NewBus()
	rt := template.NewRuntime(template.KitOS, hw.PCIConfig{})
	d := New(NewCode(&cfg.Graph{Funcs: map[uint32]*cfg.Function{}, Blocks: map[uint32]*cfg.BasicBlock{}}), rt, bus)
	if err := d.Initialize(); err == nil {
		t.Error("init on empty graph must fail")
	}
}
