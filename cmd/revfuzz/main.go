// Command revfuzz is the differential fuzzing front end: it drives a
// synthesized driver and the original binary side by side on
// randomized but reproducible schedules and reports any behavioral
// divergence, minimized to a shortest reproducer.
//
// Fuzz the whole corpus with the CI budget:
//
//	revfuzz -device all -seed 1 -budget 64
//
// Prove the oracle catches bugs (exit 0 only if one is found):
//
//	revfuzz -device SBLK100 -plant send-port -expect-divergence
//
// Replay a saved schedule file:
//
//	revfuzz -replay examples/fuzz/sblk100_smoke.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"revnic/internal/difffuzz"
	"revnic/internal/drivers"
	"revnic/internal/template"
)

func main() {
	var (
		device  = flag.String("device", "SBLK100", "corpus driver to fuzz, or \"all\"")
		osName  = flag.String("os", "windows", "synthesized-side template OS")
		seed    = flag.Int64("seed", 1, "schedule stream seed (same seed => identical run)")
		budget  = flag.Int("budget", 256, "total schedules per device")
		steps   = flag.Int("steps", 12, "max steps per schedule")
		workers = flag.Int("workers", 0, "executor parallelism (0 = default; never affects results)")
		plant   = flag.String("plant", "", "inject a synthetic synthesis bug: "+strings.Join(difffuzz.PlantKinds, ", "))
		seeds   = flag.String("seeds", "", "directory of seed schedule files (examples/fuzz)")
		replay  = flag.String("replay", "", "replay one schedule file instead of fuzzing")
		out     = flag.String("out", "", "write the JSON reports to this file")
		expect  = flag.Bool("expect-divergence", false, "invert the exit code: fail unless a divergence is found")
	)
	flag.Parse()

	if !difffuzz.ValidPlant(*plant) {
		fatalf("unknown -plant %q (known: %s)", *plant, strings.Join(difffuzz.PlantKinds, ", "))
	}
	osKind := template.OS(*osName)

	var reports []*difffuzz.Report
	if *replay != "" {
		reports = append(reports, runReplay(*replay, osKind, *plant, *workers))
	} else {
		for _, name := range deviceList(*device) {
			reports = append(reports, runFuzz(name, osKind, *seed, *budget, *steps, *workers, *plant, *seeds))
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}

	diverged := false
	for _, r := range reports {
		if len(r.Divergences) > 0 {
			diverged = true
		}
	}
	if diverged != *expect {
		if *expect {
			fmt.Fprintln(os.Stderr, "revfuzz: expected a divergence, found none")
		}
		os.Exit(1)
	}
}

func deviceList(arg string) []string {
	if arg != "all" {
		return []string{arg}
	}
	var names []string
	for _, info := range drivers.Corpus() {
		names = append(names, info.Name)
	}
	return names
}

func runFuzz(device string, osKind template.OS, seed int64, budget, steps, workers int, plant, seedDir string) *difffuzz.Report {
	cfg := difffuzz.Config{
		Device: device, OS: osKind, Seed: seed, Budget: budget,
		MaxSteps: steps, Workers: workers, Plant: plant,
	}
	if seedDir != "" {
		var err error
		cfg.Seeds, err = difffuzz.LoadSeedDir(seedDir, device)
		if err != nil {
			fatalf("%v", err)
		}
	}
	rep, err := difffuzz.Run(cfg)
	if err != nil {
		fatalf("%s: %v", device, err)
	}
	printReport(rep, len(cfg.Seeds))
	return rep
}

func runReplay(path string, osKind template.OS, plant string, workers int) *difffuzz.Report {
	sf, err := difffuzz.LoadSeedFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	if sf.OS != "" {
		osKind = template.OS(sf.OS)
	}
	// A replay is a fuzzing run of the file's schedules alone: they
	// run as seeds and fill the budget, so nothing is generated.
	rep, err := difffuzz.Run(difffuzz.Config{
		Device: sf.Device, OS: osKind, Budget: len(sf.Schedules), Workers: workers, Plant: plant,
		Seeds: sf.Schedules, MaxDivergences: len(sf.Schedules), SkipMinimize: true,
	})
	if err != nil {
		fatalf("%s: %v", sf.Device, err)
	}
	printReport(rep, len(sf.Schedules))
	return rep
}

func printReport(rep *difffuzz.Report, seedCount int) {
	fmt.Printf("%-12s %5d schedules  %5d coverage keys  %3d corpus  %3d unexplored  %3d unreached blocks  (%d seed schedules)\n",
		rep.Device, rep.Schedules, rep.CoverageKeys, rep.CorpusSize, rep.Unexplored, len(rep.Unreached), seedCount)
	for _, e := range rep.Errors {
		fmt.Printf("  ERROR: %s\n", firstLine(e))
	}
	for i := range rep.Divergences {
		d := &rep.Divergences[i]
		fmt.Printf("  DIVERGENCE: %s\n", d.String())
		if d.Minimized != nil {
			steps, _ := json.Marshal(d.Minimized.Steps)
			fmt.Printf("    reproducer: %s\n", steps)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "revfuzz: "+format+"\n", args...)
	os.Exit(1)
}
