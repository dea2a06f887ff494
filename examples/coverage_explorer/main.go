// Compare path-selection strategies (§3.2's heuristics ablation) on
// every bundled driver and print coverage-vs-time curves — the data
// behind Figure 8 and the claim that the min-count heuristic "does
// not get stuck in loops" like DFS and completes complex entry points
// faster than BFS.
//
//	go run ./examples/coverage_explorer
package main

import (
	"fmt"
	"log"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/symexec"
)

func main() {
	strategies := []struct {
		name string
		s    symexec.SearcherFactory
	}{
		{"coverage", symexec.NewCoverageGuided},
		{"DFS", symexec.NewDFS},
		{"BFS", symexec.NewBFS},
	}
	fmt.Printf("%-14s", "driver")
	for _, st := range strategies {
		fmt.Printf(" %12s", st.name)
	}
	fmt.Println("   (final basic-block coverage)")

	for _, info := range drivers.All() {
		fmt.Printf("%-14s", info.Name)
		for _, st := range strategies {
			rev, err := core.ReverseEngineer(info.Program, core.Options{
				Shell:      core.ShellConfig(info),
				DriverName: info.Name,
				Engine:     symexec.Config{Searcher: st.s},
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %11.1f%%", 100*rev.Coverage())
		}
		fmt.Println()
	}

	// Coverage growth for one driver under the default strategy.
	info, _ := drivers.ByName("AMD PCNet")
	rev, err := core.ReverseEngineer(info.Program, core.Options{
		Shell: core.ShellConfig(info), DriverName: info.Name,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s coverage growth (coverage-guided strategy):\n", info.Name)
	total := rev.GroundTruth.NumBlocks()
	last := -1
	for _, pt := range rev.Exploration.Coverage {
		pct := 100 * pt.CoveredBlocks / total
		if pct/10 != last/10 { // print one sample per decile
			fmt.Printf("  %7d blocks executed -> %3d%% covered\n", pt.ExecutedBlocks, pct)
			last = pct
		}
	}
}
