package difffuzz

import (
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/nic"
	"revnic/internal/template"
)

// drainRAMPool takes every buffer off the process-wide free list, so
// the RAM allocated next has never been used, and checks that each one
// is all-zero. The returned function puts them back.
func drainRAMPool(t *testing.T) (restore func()) {
	t.Helper()
	var held []*hw.RAM
	buf := make([]byte, hw.RAMSize)
	for hw.PooledRAM() > 0 {
		r := hw.NewRAM()
		r.ReadMem(0, buf)
		for i, c := range buf {
			if c != 0 {
				t.Fatalf("pooled buffer %d has byte %#x at %#x", len(held), c, i)
			}
		}
		held = append(held, r)
	}
	return func() {
		for _, r := range held {
			r.Free()
		}
	}
}

func outcomeJSON(t *testing.T, out Outcome) string {
	t.Helper()
	j, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(j)
}

// TestRecycledRAMDoesNotLeak runs, for every corpus device under both
// template OS kinds, schedule A and then schedule B on the memory A
// just freed, and B alone on memory no schedule ever used: the two B
// outcomes must be identical. After each batch every buffer on the
// free list must be all-zero.
func TestRecycledRAMDoesNotLeak(t *testing.T) {
	for _, info := range drivers.Corpus() {
		for _, osKind := range []template.OS{template.Windows, template.Linux} {
			h, err := NewHarness(info.Name, osKind, "")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				a := generate(31, 0, 2*i, 12, nil)
				b := generate(31, 0, 2*i+1, 12, nil)

				restore := drainRAMPool(t)
				fresh := h.RunSchedule(b)
				restore()

				RunBatch(h, []Schedule{a}, 1)
				if hw.PooledRAM() < 2 {
					t.Fatalf("%s/%s: schedule A returned no memory to the pool", info.Name, osKind)
				}
				recycled := h.RunSchedule(b)
				if got, want := outcomeJSON(t, recycled), outcomeJSON(t, fresh); got != want {
					t.Fatalf("%s/%s pair %d: B after A differs from B on unused memory:\n%s\n%s",
						info.Name, osKind, i, got, want)
				}
				drainRAMPool(t)()
			}
		}
	}
}

// TestConcurrentHarnessesShareRAMPool runs two harnesses' batches at
// the same time, four workers each, drawing from the one process-wide
// pool; each must report exactly what it reports alone on one worker.
func TestConcurrentHarnessesShareRAMPool(t *testing.T) {
	hs := []*Harness{harnessFor(t, "RTL8139", ""), harnessFor(t, "SBLK100", "")}
	batches := make([][]Schedule, len(hs))
	want := make([][]Outcome, len(hs))
	for i, h := range hs {
		for j := 0; j < 16; j++ {
			batches[i] = append(batches[i], generate(uint64(7+i), 0, j, 10, nil))
		}
		want[i] = RunBatch(h, batches[i], 1)
	}
	got := make([][]Outcome, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = RunBatch(h, batches[i], 4)
		}()
	}
	wg.Wait()
	for i := range hs {
		for j := range want[i] {
			if g, w := outcomeJSON(t, got[i][j]), outcomeJSON(t, want[i][j]); g != w {
				t.Errorf("%s schedule %d: concurrent outcome differs:\n%s\n%s", hs[i].Info.Name, j, g, w)
			}
		}
	}
	drainRAMPool(t)()
}

// TestRunBatchClampsWorkers pins that RunBatch starts no more
// goroutines than it has schedules, whatever the caller asks for:
// worker counts arrive unchecked in job specs and peer shards.
func TestRunBatchClampsWorkers(t *testing.T) {
	h := harnessFor(t, "SBLK100", "")
	batch := []Schedule{generate(3, 0, 0, 8, nil), generate(3, 0, 1, 8, nil)}
	base := runtime.NumGoroutine()
	peak := make(chan int)
	stop := make(chan struct{})
	go func() {
		max := 0
		for {
			select {
			case <-stop:
				peak <- max
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > max {
				max = n
			}
			runtime.Gosched()
		}
	}()
	outs := RunBatch(h, batch, 1<<16)
	close(stop)
	if got := <-peak - base; got > len(batch)+8 {
		t.Errorf("RunBatch of %d schedules ran %d extra goroutines", len(batch), got)
	}
	if len(outs) != len(batch) {
		t.Fatalf("%d outcomes for %d schedules", len(outs), len(batch))
	}
}

// frameRun is what the devices and OSes of one rig pair saw when a
// sequence of send and recv steps ran on both sides.
type frameRun struct {
	Tx       [2][][]byte
	Received [2][][]byte
	Status   [2]nic.Status
}

// runFrames applies send, recv and pump steps to a fresh original and
// synthesized rig of h. A send pumps interrupts after it, as
// RunSchedule does; a recv does not, so a frame can wait in the
// device while the next one is built. With reuse, the frames are
// built in one buffer that is overwritten after every step, as
// RunSchedule's are; without, each step gets a frame of its own.
func runFrames(t *testing.T, h *Harness, steps []Step, reuse bool) frameRun {
	t.Helper()
	orig, err := core.NewOriginalRig(h.Info, h.img, h.mac, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	synth, err := core.NewSynthRig(h.code, h.Info, h.OS, h.mac, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer synth.Close()
	rigs := [2]*core.Rig{orig, synth}
	promisc := []byte{guestos.FilterPromiscuous | guestos.FilterDirected, 0, 0, 0}
	for _, r := range rigs {
		if err := r.Side.Initialize(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Side.Set(guestos.OIDPacketFilter, promisc); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for _, st := range steps {
		var frame []byte
		if st.Op != "pump" {
			if reuse {
				buf = st.Frame(buf, h.mac)
				frame = buf
			} else {
				frame = st.Frame(nil, h.mac)
			}
		}
		for _, r := range rigs {
			switch st.Op {
			case "send":
				if _, err := r.Side.Send(frame); err != nil {
					t.Fatal(err)
				}
			case "recv":
				r.Dev.InjectRX(frame)
				continue
			}
			if _, err := r.Side.PumpInterrupts(16); err != nil {
				t.Fatal(err)
			}
		}
		for i := range buf {
			buf[i] = 0xEE
		}
	}
	var seen frameRun
	for i, r := range rigs {
		seen.Tx[i] = r.Dev.TxFrames()
		seen.Status[i] = r.Dev.StatusReport()
	}
	seen.Received = [2][][]byte{orig.OS.Received, synth.RT.Received}
	return seen
}

// TestFrameBufferReuse checks what RunSchedule's reuse of frame
// buffers relies on: every consumer of a frame (guest memory on send,
// the device on receive) copies it before the step ends. Frames
// overwritten after each step, also while an earlier one waits in the
// device, must leave the transmitted frames, the frames each OS
// received and the device status of every corpus device exactly as
// fresh frames do.
func TestFrameBufferReuse(t *testing.T) {
	steps := []Step{
		{Op: "send", Size: 60, Fill: 1},
		{Op: "recv", Size: 1514, Fill: 2},
		{Op: "recv", Size: 64, Fill: 3, Bcast: true},
		{Op: "pump"},
		{Op: "send", Size: 1514, Fill: 4, Bcast: true},
		{Op: "recv", Size: 300, Fill: 5},
		{Op: "send", Size: 200, Fill: 6},
		{Op: "pump"},
	}
	for _, info := range drivers.Corpus() {
		h := harnessFor(t, info.Name, "")
		fresh := runFrames(t, h, steps, false)
		reused := runFrames(t, h, steps, true)
		if len(fresh.Tx[0]) == 0 || len(fresh.Received[0]) == 0 {
			t.Fatalf("%s: %d frames sent, %d received: the steps exercise no frame path",
				info.Name, len(fresh.Tx[0]), len(fresh.Received[0]))
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Errorf("%s: overwriting the frame buffer after each step changed what the sides saw", info.Name)
		}
	}
}
