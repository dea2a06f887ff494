// Command revnic reverse engineers one of the bundled closed-source
// binary drivers and emits the synthesized C code, a coverage report,
// and (optionally) a complete instantiated driver template for a
// target OS.
//
// Usage:
//
//	revnic -driver RTL8029 [-target linux] [-o out.c] [-report]
//
// This is the reproduction's equivalent of the RevNIC command line:
// the developer names the driver binary and supplies the shell-device
// PCI parameters (here derived from the bundled device inventory).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/symexec"
	"revnic/internal/synth"
	"revnic/internal/template"
)

func main() {
	var (
		driverName = flag.String("driver", "RTL8029", "driver to reverse engineer (RTL8029, RTL8139, AMD PCNet, SMSC 91C111, SBLK100)")
		target     = flag.String("target", "", "instantiate a template for this OS (windows, linux, ucos-ii, kitos)")
		out        = flag.String("o", "", "write generated code to this file (default stdout)")
		report     = flag.Bool("report", false, "print coverage and classification report")
		strategy   = flag.String("strategy", "coverage", "path selection strategy: "+strings.Join(symexec.SearcherNames(), ", "))
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "goroutines exploring phase shards concurrently (results are identical for any value)")
		style      = flag.String("style", "", "code-emission style: "+strings.Join(synth.StyleNames(), ", ")+" (default goto; only the emitted-code shape changes)")
	)
	flag.Parse()
	if !synth.ValidStyle(*style) {
		fatal("unknown emission style %q (have %s)", *style, strings.Join(synth.StyleNames(), ", "))
	}

	info, err := drivers.ByName(*driverName)
	if err != nil {
		fatal("%v\navailable drivers:\n  %s", err, driverList())
	}
	searcher, err := symexec.SearcherByName(*strategy)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Fprintf(os.Stderr, "revnic: exercising %s (%s, %d bytes) with symbolic hardware...\n",
		info.Name, info.File, info.Program.Size())
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell:      core.ShellConfig(info),
		DriverName: info.Name,
		Style:      *style,
		Engine:     symexec.Config{Searcher: searcher, Workers: *workers},
	})
	if err != nil {
		fatal("reverse engineering failed: %v", err)
	}

	exp := rev.Exploration
	fmt.Fprintf(os.Stderr, "revnic: strategy %s: %d blocks covered, %d solver queries (%d cache hits, %d model reuses)\n",
		exp.Strategy, exp.Collector.CoveredBlocks(),
		exp.SolverQueries, exp.SolverCacheHits, exp.SolverModelHits)

	if *report {
		st := rev.Graph.ComputeStats()
		fmt.Fprintf(os.Stderr, "revnic: coverage %.1f%% of %d ground-truth basic blocks\n",
			100*rev.Coverage(), rev.GroundTruth.NumBlocks())
		fmt.Fprintf(os.Stderr, "revnic: %d functions recovered (%d fully automated, %d need template integration, %d mix HW+OS)\n",
			st.Funcs, st.AutomatedFuncs, st.ManualFuncs, st.MixedFuncs)
		fmt.Fprintf(os.Stderr, "revnic: %d executed blocks (%d translated), %d forks, %d loop-kills; wiretap: %s\n",
			exp.ExecutedBlocks, exp.TranslatedBlocks, exp.ForkCount,
			exp.KilledLoops, exp.Collector.Summary())
		// The CLI explores in the process-global default arena (one
		// run, one process); revnicd uses a private expr.Arena per job
		// instead, so this count stays flat there.
		fmt.Fprintf(os.Stderr, "revnic: %d interned expression nodes\n", expr.InternedNodes())
		ss := exp.SolverSearch
		fmt.Fprintf(os.Stderr, "revnic: SAT search: %d decisions, %d conflicts; solver sessions: %d extended, %d created\n",
			ss.Decisions, ss.Conflicts, ss.SessionsExtended, ss.SessionsRebuilt)
		for _, wmsg := range rev.Synth.Warnings {
			fmt.Fprintf(os.Stderr, "revnic: warning: %s\n", wmsg)
		}
	}

	text := rev.Synth.Code
	if *target != "" {
		text = rev.InstantiateTemplate(template.OS(*target))
	}
	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}
	fmt.Fprintf(os.Stderr, "revnic: wrote %d bytes to %s\n", len(text), *out)
}

func driverList() string {
	var names []string
	for _, d := range drivers.Corpus() {
		names = append(names, d.Name)
	}
	return strings.Join(names, "\n  ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "revnic: "+format+"\n", args...)
	os.Exit(1)
}
