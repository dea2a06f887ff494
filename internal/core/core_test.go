package core

import (
	"strings"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/symexec"
	"revnic/internal/template"
)

// reverse runs the full pipeline for one driver, cached across tests
// in this package because exploration is the expensive step.
var reversedCache = map[string]*Reversed{}

func reverse(t *testing.T, name string) (*drivers.Info, *Reversed) {
	t.Helper()
	info, err := drivers.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := reversedCache[name]; ok {
		return info, r
	}
	rev, err := ReverseEngineer(info.Program, Options{
		Shell:      ShellConfig(info),
		DriverName: info.Name,
		Engine:     symexec.Config{Seed: 7},
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	reversedCache[name] = rev
	return info, rev
}

func TestPipelineCoverage(t *testing.T) {
	for _, d := range drivers.All() {
		t.Run(d.Name, func(t *testing.T) {
			_, rev := reverse(t, d.Name)
			cov := rev.Coverage()
			// §5.4: "most tested drivers reach over 80% basic block
			// coverage in less than twenty minutes".
			if cov < 0.80 {
				t.Errorf("coverage %.1f%% < 80%%", cov*100)
			}
			if len(rev.Synth.Funcs) < 10 {
				t.Errorf("only %d functions synthesized", len(rev.Synth.Funcs))
			}
		})
	}
}

func TestGeneratedCodeShape(t *testing.T) {
	_, rev := reverse(t, "RTL8029")
	code := rev.Synth.Code
	for _, want := range []string{
		"write_port8(", // hardware I/O intrinsics
		"read_port8(",
		"goto L_",              // goto control flow (Listing 1)
		"uint32_t GlobalState", // preserved context-pointer style
		"os_NdisMIndicateReceivePacket",
		"stdcall: callee pops",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	// Each entry point must appear as a synthesized function.
	roles := map[string]bool{}
	for _, f := range rev.Synth.Funcs {
		roles[f.Role] = true
	}
	for _, r := range []string{"initialize", "send", "isr", "query", "set", "halt"} {
		if !roles[r] {
			t.Errorf("no synthesized function for role %s", r)
		}
	}
}

func TestTemplateInstantiation(t *testing.T) {
	_, rev := reverse(t, "RTL8029")
	for _, os := range template.AllOS {
		src := rev.InstantiateTemplate(os)
		if !strings.Contains(src, "synthesized by RevNIC") {
			t.Errorf("%s: missing banner", os)
		}
		if !strings.Contains(src, rev.Synth.Code[:40]) {
			t.Errorf("%s: synthesized code not embedded", os)
		}
	}
	// Table 3 numbers are exposed.
	if template.PersonDays[template.Windows] != 5 || template.PersonDays[template.KitOS] != 0 {
		t.Error("Table 3 template effort wrong")
	}
}

// TestEquivalenceAllDrivers is the §5.2 experiment: identical
// workloads on original and synthesized drivers must produce
// identical hardware I/O traces, and every Table 2 feature must work.
func TestEquivalenceAllDrivers(t *testing.T) {
	for _, d := range drivers.All() {
		t.Run(d.Name, func(t *testing.T) {
			info, rev := reverse(t, d.Name)
			rep, err := CheckEquivalence(info, rev, template.Windows)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.IOTraceEqual {
				t.Errorf("I/O traces diverge: %s (orig %d ops, synth %d ops)",
					rep.FirstDivergence, rep.OrigOps, rep.SynthOps)
			}
			if rep.OrigOps < 20 {
				t.Errorf("suspiciously few I/O ops: %d", rep.OrigOps)
			}
			for name, ok := range map[string]bool{
				"init/shutdown": rep.InitShutdown,
				"send/receive":  rep.SendReceive,
				"multicast":     rep.Multicast,
				"get/set MAC":   rep.GetSetMAC,
				"promiscuous":   rep.Promiscuous,
				"full duplex":   rep.FullDuplex,
			} {
				if !ok {
					t.Errorf("feature %s not reproduced", name)
				}
			}
			if d.HasDMA && rep.DMA != "yes" {
				t.Errorf("DMA = %s", rep.DMA)
			}
			if d.Name == "RTL8139" && (rep.WakeOnLAN != "yes" || rep.LED != "yes") {
				t.Errorf("RTL8139 WOL=%s LED=%s", rep.WakeOnLAN, rep.LED)
			}
		})
	}
}

func TestPortingToAllTargets(t *testing.T) {
	// §5.1 ports: PCNet, RTL8139, RTL8029 to Linux+Windows+KitOS;
	// 91C111 to µC/OS-II and KitOS. The synthesized driver must run
	// its init/send/halt cycle on each target runtime.
	ports := map[string][]template.OS{
		"AMD PCNet":   {template.Windows, template.Linux, template.KitOS},
		"RTL8139":     {template.Windows, template.Linux, template.KitOS},
		"RTL8029":     {template.Windows, template.Linux, template.KitOS},
		"SMSC 91C111": {template.UCOS, template.KitOS},
	}
	for name, targets := range ports {
		info, rev := reverse(t, name)
		for _, osKind := range targets {
			rep, err := CheckEquivalence(info, rev, osKind)
			if err != nil {
				t.Errorf("%s -> %s: %v", name, osKind, err)
				continue
			}
			if !rep.IOTraceEqual {
				t.Errorf("%s -> %s: trace divergence: %s", name, osKind, rep.FirstDivergence)
			}
		}
	}
}

// TestWorkersBitIdentical checks the end-to-end guarantee of the
// parallel exploration mode: the whole pipeline output — synthesized
// C code, coverage, and the recovered graph's statistics — is
// bit-identical between a serial and a parallel run with the same
// seed.
func TestWorkersBitIdentical(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Reversed {
		rev, err := ReverseEngineer(info.Program, Options{
			Shell:      ShellConfig(info),
			DriverName: info.Name,
			Engine:     symexec.Config{Seed: 11, Workers: workers},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rev
	}
	serial, parallel := run(1), run(4)
	if serial.Synth.Code != parallel.Synth.Code {
		t.Error("synthesized code differs between worker counts")
	}
	if serial.Coverage() != parallel.Coverage() {
		t.Errorf("coverage differs: %v vs %v", serial.Coverage(), parallel.Coverage())
	}
	if s, p := serial.Exploration.SolverSearch, parallel.Exploration.SolverSearch; s != p {
		t.Errorf("SAT search counters differ: %+v vs %+v", s, p)
	}
	if serial.Graph.ComputeStats() != parallel.Graph.ComputeStats() {
		t.Error("graph statistics differ between worker counts")
	}
	for _, os := range template.AllOS {
		if serial.InstantiateTemplate(os) != parallel.InstantiateTemplate(os) {
			t.Errorf("%s template differs between worker counts", os)
		}
	}
}
