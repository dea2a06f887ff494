// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each experiment has one generator that
// runs the relevant pipeline pieces and one renderer that prints the
// same rows/series the paper reports. cmd/revbench and the benchmark
// harness (bench_test.go) call these.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"revnic/internal/cfg"
	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/platform"
	"revnic/internal/symexec"
	"revnic/internal/template"
)

// Context caches the expensive artifacts (one reverse-engineering run
// per driver) shared by all experiments.
type Context struct {
	Reversed map[string]*core.Reversed
}

// ContextConfig parameterizes context construction. The zero value
// selects the defaults: one worker per available CPU, the
// coverage-guided searcher and the process-global arena.
type ContextConfig struct {
	// Workers caps both the number of drivers reverse engineered at
	// once and each engine's internal exploration parallelism
	// (cmd/revnic's -workers knob); 0 uses GOMAXPROCS.
	Workers int
	// Searcher is the path-selection factory; nil selects the
	// coverage-guided default.
	Searcher symexec.SearcherFactory
	// Arena is the expression arena every engine builds in; nil
	// selects the process-global default arena. Results are
	// bit-identical for any arena.
	Arena *expr.Arena
}

// NewContext reverse engineers all four drivers, running the
// per-driver pipelines concurrently on a bounded worker pool. Results
// are identical to a serial build: each driver uses its own engine,
// and the parallel exploration mode is bit-deterministic in the
// worker count.
func NewContext(cc ContextConfig) (*Context, error) {
	workers := cc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	all := drivers.All()
	revs := make([]*core.Reversed, len(all))
	errs := make([]error, len(all))
	// Split the budget between the driver-level pool and each
	// engine's internal exploration workers so the total stays near
	// `workers` goroutines instead of oversubscribing to the product
	// of the two. Engine results are identical for any Workers value,
	// so the split never changes the context's contents.
	pool := workers
	if pool > len(all) {
		pool = len(all)
	}
	perEngine := workers / pool
	if perEngine < 1 {
		perEngine = 1
	}
	// errgroup-style bounded pool: semaphore slots cap concurrency,
	// results land in per-driver slots so error reporting stays in
	// driver order regardless of completion order.
	sem := make(chan struct{}, pool)
	var wg sync.WaitGroup
	for i, d := range all {
		wg.Add(1)
		go func(i int, d *drivers.Info) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			revs[i], errs[i] = core.ReverseEngineer(d.Program, core.Options{
				Shell:      core.ShellConfig(d),
				DriverName: d.Name,
				Engine: symexec.Config{
					Workers: perEngine, Searcher: cc.Searcher, Arena: cc.Arena,
				},
			})
		}(i, d)
	}
	wg.Wait()
	c := &Context{Reversed: map[string]*core.Reversed{}}
	for i, d := range all {
		if errs[i] != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.Name, errs[i])
		}
		c.Reversed[d.Name] = revs[i]
	}
	return c, nil
}

// Get returns the cached reverse-engineering result for a driver.
func (c *Context) Get(name string) *core.Reversed { return c.Reversed[name] }

// ---------------------------------------------------------------- Table 1

// Table1Row mirrors Table 1: characteristics of the proprietary
// drivers.
type Table1Row struct {
	Driver          string
	File            string
	PortedTo        string
	DriverSizeKB    float64
	CodeSegKB       float64
	ImportedOSFuncs int
	DriverFuncs     int
}

// Table1 measures the driver binaries the way the paper reports them.
func Table1() []Table1Row {
	ports := map[string]string{
		"AMD PCNet":   "Windows, Linux, KitOS",
		"RTL8139":     "Windows, Linux, KitOS",
		"SMSC 91C111": "uC/OS-II, KitOS",
		"RTL8029":     "Windows, Linux, KitOS",
	}
	var out []Table1Row
	for _, d := range drivers.All() {
		gt := cfg.Static(d.Program.Base, d.Program.Code)
		// Code segment: extent of statically reachable code.
		var maxEnd uint32
		for _, a := range gt.SortedBlockStarts() {
			if a > maxEnd {
				maxEnd = a
			}
		}
		codeBytes := maxEnd + isa.InstrSize - d.Program.Base
		// Imported OS functions: distinct API gates referenced.
		imports := staticImports(d)
		out = append(out, Table1Row{
			Driver:          d.Name,
			File:            d.File,
			PortedTo:        ports[d.Name],
			DriverSizeKB:    float64(d.Program.Size()) / 1024,
			CodeSegKB:       float64(codeBytes) / 1024,
			ImportedOSFuncs: imports,
			DriverFuncs:     len(gt.FuncEntries),
		})
	}
	return out
}

// staticImports counts the distinct OS API functions the binary
// references (the import-table size of Table 1).
func staticImports(d *drivers.Info) int {
	seen := map[uint32]bool{}
	code := d.Program.Code
	for off := 0; off+isa.InstrSize <= len(code); off += isa.InstrSize {
		in, err := isa.Decode(code[off:])
		if err != nil {
			continue
		}
		if in.Op == isa.CALL && hw.IsAPIGate(in.Imm) {
			seen[hw.APIIndex(in.Imm)] = true
		}
	}
	return len(seen)
}

// RenderTable1 prints Table 1.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: Characteristics of the proprietary, closed-source drivers\n")
	fmt.Fprintf(w, "%-14s %-14s %-24s %8s %8s %9s %6s\n",
		"Driver", "File", "Ported to", "Size", "CodeSeg", "Imports", "Funcs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-14s %-24s %7.1fK %7.1fK %9d %6d\n",
			r.Driver, r.File, r.PortedTo, r.DriverSizeKB, r.CodeSegKB, r.ImportedOSFuncs, r.DriverFuncs)
	}
}

// ---------------------------------------------------------------- Table 2

// Table2 runs the functionality-equivalence experiment for every
// driver (§5.2).
func (c *Context) Table2() ([]*core.FeatureReport, error) {
	var out []*core.FeatureReport
	for _, d := range drivers.All() {
		rep, err := core.CheckEquivalence(d, c.Get(d.Name), template.Windows)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", d.Name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "FAIL"
}

// RenderTable2 prints the functionality matrix.
func RenderTable2(w io.Writer, reps []*core.FeatureReport) {
	fmt.Fprintf(w, "Table 2: Functionality coverage of reverse engineered drivers\n")
	fmt.Fprintf(w, "%-18s", "Functionality")
	for _, r := range reps {
		fmt.Fprintf(w, " %-12s", r.Driver)
	}
	fmt.Fprintln(w)
	row := func(name string, get func(*core.FeatureReport) string) {
		fmt.Fprintf(w, "%-18s", name)
		for _, r := range reps {
			fmt.Fprintf(w, " %-12s", get(r))
		}
		fmt.Fprintln(w)
	}
	row("Init/Shutdown", func(r *core.FeatureReport) string { return mark(r.InitShutdown) })
	row("Send/Receive", func(r *core.FeatureReport) string { return mark(r.SendReceive) })
	row("Multicast", func(r *core.FeatureReport) string { return mark(r.Multicast) })
	row("Get/Set MAC", func(r *core.FeatureReport) string { return mark(r.GetSetMAC) })
	row("Promiscuous", func(r *core.FeatureReport) string { return mark(r.Promiscuous) })
	row("Full Duplex", func(r *core.FeatureReport) string { return mark(r.FullDuplex) })
	row("DMA", func(r *core.FeatureReport) string { return r.DMA })
	row("Wake-on-LAN", func(r *core.FeatureReport) string { return r.WakeOnLAN })
	row("LED Status", func(r *core.FeatureReport) string { return r.LED })
	row("I/O trace equal", func(r *core.FeatureReport) string { return mark(r.IOTraceEqual) })
}

// ---------------------------------------------------------------- Table 3

// Table3Row is the template-writing effort (Table 3).
type Table3Row struct {
	TargetOS   template.OS
	PersonDays int
}

// Table3 reports template effort; the person-day figures are the
// paper's (a human-effort quantity that cannot be re-measured), and
// the template source is generated to show what the effort bought.
func Table3() []Table3Row {
	var out []Table3Row
	for _, os := range template.AllOS {
		out = append(out, Table3Row{TargetOS: os, PersonDays: template.PersonDays[os]})
	}
	return out
}

// RenderTable3 prints Table 3.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: Time to write a template (as reported in the paper)\n")
	fmt.Fprintf(w, "%-12s %s\n", "Target OS", "Person-Days")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %d\n", r.TargetOS, r.PersonDays)
	}
}

// ---------------------------------------------------------------- Table 4

// Table4Row is the developer-effort comparison (Table 4).
type Table4Row struct {
	Device        string
	ManualPersons int
	ManualSpan    string
	RevNICPersons int
	RevNICSpan    string
}

// Table4 reports the paper's developer-effort numbers. Like Table 3
// these are human-effort observations that cannot be re-measured by
// code; the reproduction's analogue — RevNIC exercising plus code
// synthesis in under an hour — is validated by the Figure 8 harness.
func Table4() []Table4Row {
	return []Table4Row{
		{"RTL8139", 18, "4 years", 1, "1 week"},
		{"SMSC 91C111", 8, "4 years", 1, "4 days"},
		{"RTL8029", 5, "2 years", 1, "5 days"},
		{"AMD PCNet", 3, "4 years", 1, "1 week"},
	}
}

// RenderTable4 prints Table 4.
func RenderTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4: Amount of developer effort (manual Linux vs RevNIC)\n")
	fmt.Fprintf(w, "%-14s %14s %12s %14s %12s\n", "Device", "Manual persons", "Manual span", "RevNIC persons", "RevNIC span")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %14d %12s %14d %12s\n", r.Device, r.ManualPersons, r.ManualSpan, r.RevNICPersons, r.RevNICSpan)
	}
}

// ---------------------------------------------------------------- figures

// Series is one labelled curve of a figure.
type Series struct {
	Label  string
	Points []platform.Point
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string
	Title  string
	YLabel string
	Series []Series
}

// RenderFigure prints a figure as aligned columns (payload size, then
// one column per series).
func RenderFigure(w io.Writer, f *Figure, cpu bool) {
	fmt.Fprintf(w, "%s: %s [%s]\n", f.ID, f.Title, f.YLabel)
	fmt.Fprintf(w, "%8s", "payload")
	for _, s := range f.Series {
		fmt.Fprintf(w, " %22s", s.Label)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%8d", f.Series[0].Points[i].PayloadBytes)
		for _, s := range f.Series {
			v := s.Points[i].ThroughputMbps
			if cpu {
				v = s.Points[i].CPUPercent
			}
			fmt.Fprintf(w, " %22.1f", v)
		}
		fmt.Fprintln(w)
	}
}

// throughputFigure assembles the five standard curves for a PC/VM
// figure: Windows original, Windows->Windows, Linux original,
// Windows->Linux, Windows->KitOS.
func (c *Context) throughputFigure(id, title, driverName string, m platform.Machine,
	winStack platform.StackModel, kitosStack platform.StackModel) (*Figure, error) {
	info, err := drivers.ByName(driverName)
	if err != nil {
		return nil, err
	}
	rev := c.Get(driverName)
	orig, err := platform.MeasureOriginal(info, platform.DefaultPayloads)
	if err != nil {
		return nil, fmt.Errorf("%s original: %w", id, err)
	}
	syn, err := platform.MeasureSynthesized(info, rev.Graph, template.Windows, platform.DefaultPayloads)
	if err != nil {
		return nil, fmt.Errorf("%s synthesized: %w", id, err)
	}
	native := platform.NativeCosts(syn)
	p := platform.DefaultPayloads
	return &Figure{
		ID: id, Title: title, YLabel: "Throughput (Mbps)",
		Series: []Series{
			{"Windows->KitOS", platform.Curve(m, kitosStack, syn, p)},
			{"Windows->Windows", platform.Curve(m, winStack, syn, p)},
			{"Linux Original", platform.Curve(m, platform.LinuxStack, native, p)},
			{"Windows->Linux", platform.Curve(m, platform.LinuxStack, syn, p)},
			{"Windows Original", platform.Curve(m, winStack, orig, p)},
		},
	}, nil
}

// Fig2 reproduces Figure 2: RTL8139 throughput on the x86 PC. The
// Windows-original curve carries the >1 KB quirk.
func (c *Context) Fig2() (*Figure, error) {
	winOrig := platform.WindowsStack
	winOrig.QuirkWallUS = platform.WindowsRTL8139Quirk
	f, err := c.throughputFigure("Figure 2", "RTL8139 driver throughput on x86",
		"RTL8139", platform.PC, platform.WindowsStack, platform.KitOSStack)
	if err != nil {
		return nil, err
	}
	// Replace the Windows-original series with the quirky one.
	info, _ := drivers.ByName("RTL8139")
	orig, err := platform.MeasureOriginal(info, platform.DefaultPayloads)
	if err != nil {
		return nil, err
	}
	f.Series[4] = Series{"Windows Original", platform.Curve(platform.PC, winOrig, orig, platform.DefaultPayloads)}
	return f, nil
}

// Fig3 reproduces Figure 3: RTL8139 CPU utilization on x86 (same
// simulation, CPU axis; rendered with cpu=true).
func (c *Context) Fig3() (*Figure, error) {
	f, err := c.Fig2()
	if err != nil {
		return nil, err
	}
	f.ID, f.Title, f.YLabel = "Figure 3", "CPU utilization for RTL8139 drivers on x86", "CPU Utilization (%)"
	// The paper's Figure 3 shows four curves (no KitOS).
	f.Series = f.Series[1:]
	return f, nil
}

// Fig4 reproduces Figure 4: 91C111 throughput on the FPGA platform.
func (c *Context) Fig4() (*Figure, error) {
	info, err := drivers.ByName("SMSC 91C111")
	if err != nil {
		return nil, err
	}
	rev := c.Get(info.Name)
	syn, err := platform.MeasureSynthesized(info, rev.Graph, template.UCOS, platform.DefaultPayloads)
	if err != nil {
		return nil, err
	}
	native := platform.NativeCosts(syn)
	p := platform.DefaultPayloads
	return &Figure{
		ID: "Figure 4", Title: "91C111 driver ported from Windows to an FPGA",
		YLabel: "Throughput (Mbps)",
		Series: []Series{
			{"uC/OSII Original", platform.Curve(platform.FPGA, platform.UCOSStack, native, p)},
			{"Windows->uC/OSII", platform.Curve(platform.FPGA, platform.UCOSStack, syn, p)},
		},
	}, nil
}

// Fig5 reproduces Figure 5: CPU fraction spent inside the 91C111
// driver.
func (c *Context) Fig5() (*Figure, error) {
	info, err := drivers.ByName("SMSC 91C111")
	if err != nil {
		return nil, err
	}
	rev := c.Get(info.Name)
	syn, err := platform.MeasureSynthesized(info, rev.Graph, template.UCOS, platform.DefaultPayloads)
	if err != nil {
		return nil, err
	}
	native := platform.NativeCosts(syn)
	mk := func(costs map[int]platform.DriverCost) []platform.Point {
		var pts []platform.Point
		for _, p := range platform.DefaultPayloads {
			pts = append(pts, platform.Point{
				PayloadBytes: p,
				CPUPercent:   platform.ISRFraction(platform.FPGA, platform.UCOSStack, costs[p], platform.FrameBytes(p)),
			})
		}
		return pts
	}
	return &Figure{
		ID: "Figure 5", Title: "CPU fraction spent inside the 91C111 driver",
		YLabel: "CPU Utilization (%)",
		Series: []Series{
			{"uC/OSII Original", mk(native)},
			{"Windows->uC/OSII", mk(syn)},
		},
	}, nil
}

// Fig6 reproduces Figure 6: RTL8029 throughput on QEMU.
func (c *Context) Fig6() (*Figure, error) {
	return c.throughputFigure("Figure 6", "RTL8029 throughput (QEMU)",
		"RTL8029", platform.QEMU, platform.WindowsStack, platform.KitOSStack)
}

// Fig7 reproduces Figure 7: AMD PCNet throughput on VMware, with the
// KitOS VM-quirk.
func (c *Context) Fig7() (*Figure, error) {
	kitos := platform.KitOSStack
	kitos.QuirkWallUS = platform.KitOSVMwareQuirk
	return c.throughputFigure("Figure 7", "AMD PCNet throughput (VMware)",
		"AMD PCNet", platform.VMware, platform.WindowsStack, kitos)
}

// ---------------------------------------------------------------- Fig 8

// CoverageSeries is one driver's coverage-vs-time curve (Figure 8).
type CoverageSeries struct {
	Driver string
	// Minutes and Percent are parallel: basic-block coverage over
	// simulated RevNIC running time.
	Minutes []float64
	Percent []float64
}

// blocksPerMinute converts executed translation blocks to simulated
// wall-clock exploration minutes (the paper's x-axis). The paper's
// engine symbolically executes x86-via-LLVM under KLEE with
// constraint solving on every branch, at roughly this many driver
// translation blocks per minute; the calibration places full
// exploration inside the paper's <20 minute envelope.
const blocksPerMinute = 1500

// Fig8 extracts coverage growth from the explorations.
func (c *Context) Fig8() []CoverageSeries {
	var out []CoverageSeries
	for _, d := range drivers.All() {
		rev := c.Get(d.Name)
		total := rev.GroundTruth.NumBlocks()
		s := CoverageSeries{Driver: d.Name}
		for _, pt := range rev.Exploration.Coverage {
			// Count only blocks inside the driver image toward
			// coverage (the collector may include a handful of
			// split variants).
			pct := 100 * float64(pt.CoveredBlocks) / float64(total)
			if pct > 100 {
				pct = 100 // split variants can slightly overcount
			}
			s.Minutes = append(s.Minutes, float64(pt.ExecutedBlocks)/blocksPerMinute)
			s.Percent = append(s.Percent, pct)
		}
		out = append(out, s)
	}
	return out
}

// RenderFig8 prints coverage curves at fixed time samples.
func RenderFig8(w io.Writer, series []CoverageSeries) {
	fmt.Fprintln(w, "Figure 8: Basic block coverage vs RevNIC running time")
	samples := []float64{0.25, 0.5, 1, 2, 4, 8, 12, 16, 20}
	fmt.Fprintf(w, "%8s", "min")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s.Driver)
	}
	fmt.Fprintln(w)
	for _, t := range samples {
		fmt.Fprintf(w, "%8.1f", t)
		for _, s := range series {
			fmt.Fprintf(w, " %13.1f%%", coverageAt(s, t))
		}
		fmt.Fprintln(w)
	}
}

func coverageAt(s CoverageSeries, minutes float64) float64 {
	best := 0.0
	for i, m := range s.Minutes {
		if m <= minutes && s.Percent[i] > best {
			best = s.Percent[i]
		}
	}
	return best
}

// FinalCoverage returns the end-of-run coverage fraction per driver.
func (c *Context) FinalCoverage() map[string]float64 {
	out := map[string]float64{}
	for _, d := range drivers.All() {
		out[d.Name] = c.Get(d.Name).Coverage()
	}
	return out
}

// ---------------------------------------------------------------- Fig 9

// Fig9Row is one driver's function-classification breakdown.
type Fig9Row struct {
	Driver       string
	TotalFuncs   int
	Automated    int
	Manual       int
	MixedHWOS    int
	AutomatedPct float64
}

// Fig9 classifies recovered functions into fully synthesized vs
// needing manual template integration.
func (c *Context) Fig9() []Fig9Row {
	var out []Fig9Row
	for _, d := range drivers.All() {
		st := c.Get(d.Name).Graph.ComputeStats()
		out = append(out, Fig9Row{
			Driver:       d.Name,
			TotalFuncs:   st.Funcs,
			Automated:    st.AutomatedFuncs,
			Manual:       st.ManualFuncs,
			MixedHWOS:    st.MixedFuncs,
			AutomatedPct: 100 * float64(st.AutomatedFuncs) / float64(st.Funcs),
		})
	}
	return out
}

// RenderFig9 prints the breakdown.
func RenderFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: OS-specific vs hardware-specific functions (% of recovered)")
	fmt.Fprintf(w, "%-14s %6s %10s %7s %11s %10s\n", "Driver", "Funcs", "Automated", "Manual", "Mixed HW/OS", "Auto %")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %6d %10d %7d %11d %9.0f%%\n",
			r.Driver, r.TotalFuncs, r.Automated, r.Manual, r.MixedHWOS, r.AutomatedPct)
	}
}

// ---------------------------------------------------------------- misc

// List enumerates available experiment IDs.
func List() []string {
	return []string{"table1", "table2", "table3", "table4",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}
}

// Run executes one experiment by ID and renders it to w. Experiments
// that need reverse-engineering results receive the shared context.
func (c *Context) Run(id string, w io.Writer) error {
	switch strings.ToLower(id) {
	case "table1":
		RenderTable1(w, Table1())
	case "table2":
		reps, err := c.Table2()
		if err != nil {
			return err
		}
		RenderTable2(w, reps)
	case "table3":
		RenderTable3(w, Table3())
	case "table4":
		RenderTable4(w, Table4())
	case "fig2":
		f, err := c.Fig2()
		if err != nil {
			return err
		}
		RenderFigure(w, f, false)
	case "fig3":
		f, err := c.Fig3()
		if err != nil {
			return err
		}
		RenderFigure(w, f, true)
	case "fig4":
		f, err := c.Fig4()
		if err != nil {
			return err
		}
		RenderFigure(w, f, false)
	case "fig5":
		f, err := c.Fig5()
		if err != nil {
			return err
		}
		RenderFigure(w, f, true)
	case "fig6":
		f, err := c.Fig6()
		if err != nil {
			return err
		}
		RenderFigure(w, f, false)
	case "fig7":
		f, err := c.Fig7()
		if err != nil {
			return err
		}
		RenderFigure(w, f, false)
	case "fig8":
		RenderFig8(w, c.Fig8())
	case "fig9":
		RenderFig9(w, c.Fig9())
	default:
		return fmt.Errorf("unknown experiment %q; known: %s", id, strings.Join(List(), ", "))
	}
	return nil
}
