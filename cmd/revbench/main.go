// Command revbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	revbench -exp all            # everything
//	revbench -exp fig2           # one experiment
//	revbench -list               # enumerate experiment IDs
//	revbench -grid               # timing grid, JSON on stdout
//	revbench -grid -grid-out BENCH_10.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"revnic/internal/drivers"
	"revnic/internal/experiments"
	"revnic/internal/expr"
	"revnic/internal/symexec"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1..table4, fig2..fig9) or 'all'")
		list     = flag.Bool("list", false, "list experiment ids")
		strategy = flag.String("strategy", "coverage", "path selection strategy for the exploration runs: "+strings.Join(symexec.SearcherNames(), ", "))
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the reverse-engineering context (results are identical for any value)")
		grid     = flag.Bool("grid", false, "run the timing grid (1 and 4 workers, plus searcher cells) instead of the experiments")
		repeats  = flag.Int("repeats", 3, "repetitions per grid cell (with -grid)")
		gridOut  = flag.String("grid-out", "-", "grid report output path (with -grid; '-' for stdout)")
		gridCSV  = flag.String("csv", "", "also export every individual grid run as CSV to this path (with -grid)")
		gridClu  = flag.Bool("grid-cluster", false, "include the coordinator straggler scenario (work queue with stealing, one slow peer) in the grid")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(experiments.List(), "\n"))
		return
	}
	searcher, err := symexec.SearcherByName(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "revbench: %v\n", err)
		os.Exit(1)
	}
	if *grid {
		if err := runGrid(*strategy, searcher, *repeats, *gridOut, *gridCSV, *gridClu); err != nil {
			fmt.Fprintf(os.Stderr, "revbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "revbench: reverse engineering all four drivers (%d workers, %s strategy)...\n",
		*workers, *strategy)
	ctx, err := experiments.NewContext(experiments.ContextConfig{
		Workers: *workers, Searcher: searcher,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "revbench: %v\n", err)
		os.Exit(1)
	}
	for _, d := range drivers.All() {
		e := ctx.Get(d.Name).Exploration
		fmt.Fprintf(os.Stderr, "revbench: %-12s %s: %d blocks covered, %d solver queries (%d cache hits, %d model reuses)\n",
			d.Name, e.Strategy, e.Collector.CoveredBlocks(),
			e.SolverQueries, e.SolverCacheHits, e.SolverModelHits)
	}
	// One-shot process: all four explorations intern into the default
	// arena (revnicd scopes an arena per job instead).
	fmt.Fprintf(os.Stderr, "revbench: %d interned expression nodes across all drivers\n", expr.InternedNodes())
	ids := experiments.List()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		if err := ctx.Run(strings.TrimSpace(id), os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "revbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
