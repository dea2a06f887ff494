package difffuzz

import (
	"encoding/json"
	"testing"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/template"
)

var harnessCache = map[string]*Harness{}

func harnessFor(t testing.TB, device, plant string) *Harness {
	t.Helper()
	key := device + "|" + plant
	if h, ok := harnessCache[key]; ok {
		return h
	}
	h, err := NewHarness(device, template.Windows, plant)
	if err != nil {
		t.Fatal(err)
	}
	harnessCache[key] = h
	return h
}

// TestScheduleGenerationDeterministic pins that schedule content is a
// pure function of (seed, round, index, corpus).
func TestScheduleGenerationDeterministic(t *testing.T) {
	corpus := []Schedule{generate(1, 0, 0, 12, nil)}
	for i := 0; i < 8; i++ {
		a := generate(42, 3, i, 12, corpus)
		b := generate(42, 3, i, 12, corpus)
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("index %d: schedules differ:\n%s\n%s", i, aj, bj)
		}
		if len(a.Steps) == 0 || len(a.Steps) > 12 {
			t.Fatalf("index %d: %d steps", i, len(a.Steps))
		}
	}
	if generate(42, 3, 0, 12, corpus).ID == generate(43, 3, 0, 12, corpus).ID {
		t.Error("different seeds produced the same schedule ID")
	}
}

// TestCleanDriverNoDivergence fuzzes a correctly-synthesized NIC
// driver: the fuzzer must find no behavioral difference, and the run
// must reach meaningful coverage.
func TestCleanDriverNoDivergence(t *testing.T) {
	h := harnessFor(t, "RTL8029", "")
	rep, err := Fuzz(h, Config{Device: "RTL8029", Seed: 11, Budget: 48, MaxSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("false positive: %s", d.String())
	}
	if len(rep.Errors) > 0 {
		t.Errorf("harness errors: %v", rep.Errors)
	}
	if rep.CoverageKeys < 50 {
		t.Errorf("only %d coverage keys; the generator is not exercising the driver", rep.CoverageKeys)
	}
	if rep.CorpusSize == 0 {
		t.Error("no schedule earned corpus admission; coverage feedback is dead")
	}
}

// TestCleanBlockDeviceNoDivergence does the same on the block
// controller, whose protocol (LBA registers, 16-bit data port,
// IDENTIFY) is entirely different from the NICs.
func TestCleanBlockDeviceNoDivergence(t *testing.T) {
	h := harnessFor(t, "SBLK100", "")
	rep, err := Fuzz(h, Config{Device: "SBLK100", Seed: 5, Budget: 48, MaxSteps: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Divergences {
		t.Errorf("false positive: %s", d.String())
	}
	if len(rep.Errors) > 0 {
		t.Errorf("harness errors: %v", rep.Errors)
	}
}

// TestWorkerCountIndependence is the load-bearing determinism pin:
// the same seed must produce byte-identical reports for 1, 2 and 8
// workers.
func TestWorkerCountIndependence(t *testing.T) {
	h := harnessFor(t, "SBLK100", "")
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		rep, err := Fuzz(h, Config{
			Device: "SBLK100", Seed: 99, Budget: 32, MaxSteps: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.MarshalIndent(rep, "", " ")
		if first == nil {
			first = j
		} else if string(first) != string(j) {
			t.Fatalf("report differs between worker counts:\n--- workers=1\n%s\n--- workers=%d\n%s",
				first, workers, j)
		}
	}
}

// TestPlantedBugFoundAndMinimized is the subsystem's acceptance test:
// a synthetic port-offset bug planted in the synthesized block-device
// driver must be found within a CI-sized budget and minimized to a
// short reproducer.
func TestPlantedBugFoundAndMinimized(t *testing.T) {
	h := harnessFor(t, "SBLK100", "send-port")
	rep, err := Fuzz(h, Config{Device: "SBLK100", Seed: 1, Budget: 64, MaxSteps: 10, Plant: "send-port"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) == 0 {
		t.Fatalf("planted bug not found in %d schedules", rep.Schedules)
	}
	d := rep.Divergences[0]
	if d.Kind != "trace" {
		t.Errorf("divergence kind %q, want trace (the planted bug shifts a port write)", d.Kind)
	}
	if d.Minimized == nil {
		t.Fatal("no minimized reproducer")
	}
	if n := len(d.Minimized.Steps); n > 10 {
		t.Errorf("minimized reproducer has %d steps, want <= 10", n)
	}
	// The minimized schedule must still reproduce standalone.
	out := h.RunSchedule(*d.Minimized)
	if out.Divergence == nil {
		t.Error("minimized schedule does not reproduce the divergence")
	}
	// A send must be involved — the bug is in the send path.
	hasSend := false
	for _, st := range d.Minimized.Steps {
		if st.Op == "send" {
			hasSend = true
		}
	}
	if !hasSend {
		t.Errorf("minimized reproducer %v has no send step", d.Minimized.Steps)
	}
}

// TestPlantedBugOnNIC checks the planted-bug machinery generalizes
// beyond the block device.
func TestPlantedBugOnNIC(t *testing.T) {
	h := harnessFor(t, "RTL8029", "send-port")
	rep, err := Fuzz(h, Config{Device: "RTL8029", Seed: 1, Budget: 64, MaxSteps: 10, Plant: "send-port"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) == 0 {
		t.Fatalf("planted bug not found in %d schedules", rep.Schedules)
	}
}

// TestRunSchedulePanicRecovered pins that a panicking schedule
// executor surfaces as Outcome.Err, never as a crash — the property
// the job-runner pool depends on.
func TestRunSchedulePanicRecovered(t *testing.T) {
	h := harnessFor(t, "SBLK100", "")
	out := h.RunSchedule(Schedule{ID: 1, Steps: []Step{{Op: "bogus-op"}}})
	if out.Err == "" {
		t.Error("unknown op did not surface as an outcome error")
	}
	// A genuinely panicking step: Size beyond MaxFrame is handled by
	// the drivers, so force a panic through a nil schedule step op on
	// an empty harness path instead — the recover path itself is
	// exercised via a synthetic runner.
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic escaped RunSchedule: %v", r)
			}
		}()
		_ = h.RunSchedule(Schedule{ID: 2, Steps: []Step{{Op: "send", Size: -1}}})
	}()
}

// TestMinimizeIsDeterministic pins that minimization of the same
// divergence always lands on the same reproducer.
func TestMinimizeIsDeterministic(t *testing.T) {
	h := harnessFor(t, "SBLK100", "send-port")
	sched := Schedule{ID: 7, Steps: []Step{
		{Op: "query", OID: 0x01010102, Val: 6},
		{Op: "pump"},
		{Op: "send", Size: 64, Fill: 3},
		{Op: "recv", Size: 96},
		{Op: "send", Size: 600, Fill: 9, Bcast: true},
		{Op: "timer"},
	}}
	if h.RunSchedule(sched).Divergence == nil {
		t.Fatal("seed schedule does not diverge on the planted bug")
	}
	a, atr := Minimize(h, sched, 200)
	b, btr := Minimize(h, sched, 200)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) || atr != btr {
		t.Fatalf("minimization not deterministic: %s (%d trials) vs %s (%d trials)", aj, atr, bj, btr)
	}
	if len(a.Steps) > 2 {
		t.Errorf("minimized to %d steps, expected <= 2 (one send suffices)", len(a.Steps))
	}
}

// TestCorruptedIndicatedFrameIsRxData checks that the oracle compares
// the frames each side indicates up the stack: after a clean recv
// step on every corpus device, a flipped byte or a lost frame on the
// synthesized side must surface at the next pump as an rx-data
// divergence.
func TestCorruptedIndicatedFrameIsRxData(t *testing.T) {
	for _, info := range drivers.Corpus() {
		for _, corrupt := range []string{"byte", "count"} {
			t.Run(info.Name+"/"+corrupt, func(t *testing.T) {
				h := harnessFor(t, info.Name, "")
				o, err := core.NewOracle(h.Info, h.img, h.code, h.OS, h.mac, &h.models)
				if err != nil {
					t.Fatal(err)
				}
				defer o.Close()
				if !o.Init() || !o.Step(0, Step{Op: "recv", Size: 64, Fill: 0x5A}) {
					t.Fatalf("clean recv stopped the schedule: %+v", o.Mismatch)
				}
				rx := o.Synth.RT.Received
				if len(rx) == 0 || len(o.Orig.OS.Received) != len(rx) {
					t.Fatalf("recv indicated %d frames on the original side, %d on the synthesized one",
						len(o.Orig.OS.Received), len(rx))
				}
				if corrupt == "byte" {
					rx[0][len(rx[0])-1] ^= 0xFF
				} else {
					o.Synth.RT.Received = rx[:len(rx)-1]
				}
				if o.Step(1, Step{Op: "pump"}) || o.Mismatch == nil || o.Mismatch.Kind != "rx-data" {
					t.Fatalf("corrupted %s: divergence %+v, want rx-data", corrupt, o.Mismatch)
				}
			})
		}
	}
}
