// Package core is RevNIC's public API: it wires together the
// exerciser/tracer (symbolic execution with symbolic hardware), the
// trace-to-CFG reconstruction, the code synthesizer, and the driver
// templates into the end-to-end pipeline of Figure 1:
//
//	binary driver ──► wiretap + selective symbolic execution
//	              ──► activity traces ──► CFG ──► C code
//	              ──► template instantiation ──► synthetic driver
//
// The synthetic driver can be emitted as C source for a chosen target
// OS, or instantiated as an executable (package synthdrv) for the
// equivalence and performance experiments of §5. One step oracle
// (Oracle) runs a schedule of steps on the original binary and the
// synthesized driver in lockstep and compares them at every step: the
// §5.2 check (CheckEquivalence) runs the committed EquivalenceWorkload
// through it, and the differential fuzzer (package difffuzz) its
// generated schedules.
package core

import (
	"fmt"

	"revnic/internal/cfg"
	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/symexec"
	"revnic/internal/synth"
	"revnic/internal/template"
)

// Options configures a reverse-engineering run.
type Options struct {
	// Shell is the shell-device PCI descriptor (vendor/device ID,
	// I/O window, IRQ line) the developer supplies on the command
	// line (§3.4).
	Shell hw.PCIConfig
	// Engine tunes exploration; Shell overrides Engine.Shell.
	Engine symexec.Config
	// DriverName labels generated artifacts.
	DriverName string
	// Style selects the synthesis code-emission style
	// (synth.StyleGoto when empty). The style changes only the shape
	// of the emitted C; the recovered graph — and therefore the
	// executable synthetic driver — is identical.
	Style string
}

// Reversed is the complete result of reverse engineering one binary
// driver.
type Reversed struct {
	Name string
	// Exploration carries coverage curves and wiretap statistics.
	Exploration *symexec.Result
	// Graph is the recovered control flow graph.
	Graph *cfg.Graph
	// Synth is the generated C code and per-function metadata.
	Synth *synth.Output
	// GroundTruth is the static disassembly used only for metrics.
	GroundTruth *cfg.StaticGroundTruth
}

// ReverseEngineer runs the full RevNIC pipeline on a driver binary.
// Only prog.Base and prog.Code are consumed — symbol information, if
// any, is ignored, as with a real closed-source binary.
func ReverseEngineer(prog *isa.Program, opt Options) (*Reversed, error) {
	ecfg := opt.Engine
	ecfg.Shell = opt.Shell
	eng := symexec.New(prog, ecfg)
	res, err := eng.Explore()
	if err != nil {
		return nil, fmt.Errorf("core: exploration: %w", err)
	}
	g := cfg.Build(res.Collector)
	out := synth.Generate(g, synth.Options{DriverName: opt.DriverName, Style: opt.Style})
	return &Reversed{
		Name:        opt.DriverName,
		Exploration: res,
		Graph:       g,
		Synth:       out,
		GroundTruth: cfg.Static(prog.Base, prog.Code),
	}, nil
}

// Coverage returns the fraction of ground-truth basic blocks the
// exploration reached (the y-axis of Figure 8).
func (r *Reversed) Coverage() float64 {
	covered := map[uint32]bool{}
	for a := range r.Graph.Blocks {
		covered[a] = true
	}
	return r.GroundTruth.Coverage(covered)
}

// InstantiateTemplate produces the complete driver source for a
// target OS: boilerplate plus the synthesized hardware-protocol code.
func (r *Reversed) InstantiateTemplate(os template.OS) string {
	return template.Instantiate(os, r.Name, r.Synth)
}
