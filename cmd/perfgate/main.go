// Command perfgate is the CI performance-regression gate: it compares
// a freshly generated revbench grid report against the committed
// baseline (BENCH_10.json) and fails when any matching cell's mean
// wall-clock regressed beyond the threshold.
//
// Cells match on (solver, searcher, workers, shard_factor, scenario) —
// an absent searcher means "coverage", so baselines written before the
// searcher axis existed still match fresh coverage cells; cells
// present in only one report are skipped with a note, so a reduced CI
// grid (fewer repeats, no cluster scenario) gates only what it
// actually measured, and baseline cells of retired modes (the
// "portfolio" solver cells, the "straggler-static" scenario) are
// skipped rather than failed. Timing noise is expected — the default 25%
// threshold is meant to catch structural regressions (a scheduler
// serializing, a solver losing its cache), not jitter.
//
// It also checks one invariant inside the fresh report alone: an
// "incremental" cell must not be slower than the "no-incremental" cell
// at the same searcher, workers, shard factor and scenario. Sessions
// exist to make solving cheaper, so an inversion is a regression in
// the solver layer even when every cell is within the threshold of a
// baseline that already carries it.
//
// Usage:
//
//	revbench -grid -repeats 2 -grid-out fresh.json
//	perfgate -base BENCH_10.json -fresh fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type cell struct {
	Solver      string  `json:"solver"`
	Searcher    string  `json:"searcher,omitempty"`
	Workers     int     `json:"workers"`
	ShardFactor int     `json:"shard_factor,omitempty"`
	Scenario    string  `json:"scenario,omitempty"`
	MeanMS      float64 `json:"mean_ms"`
}

type report struct {
	Bench string `json:"bench"`
	Cells []cell `json:"cells"`
}

func key(c cell) string {
	return c.Solver + "/" + axes(c)
}

// axes is a cell's key without the solver mode: the cells an
// incremental cell is compared against share it.
func axes(c cell) string {
	// Reports written before the searcher axis existed omit the field;
	// they all ran the coverage-guided default, so normalize rather than
	// orphan every historical baseline cell.
	s := c.Searcher
	if s == "" {
		s = "coverage"
	}
	return fmt.Sprintf("%s/w%d/f%d/%s", s, c.Workers, c.ShardFactor, c.Scenario)
}

// incrementalInversions reports every incremental cell whose mean
// exceeds the no-incremental cell on the same axes, and how many such
// pairs the report holds.
func incrementalInversions(cells []cell) (pairs, inversions int) {
	noInc := make(map[string]cell)
	for _, c := range cells {
		if c.Solver == "no-incremental" {
			noInc[axes(c)] = c
		}
	}
	for _, c := range cells {
		n, ok := noInc[axes(c)]
		if c.Solver != "incremental" || !ok {
			continue
		}
		pairs++
		status := "ok"
		if c.MeanMS > n.MeanMS {
			status = "INVERSION"
			inversions++
		}
		fmt.Printf("perfgate: incremental vs no-incremental %-24s %8.0f ms vs %8.0f ms  %s\n",
			axes(c), c.MeanMS, n.MeanMS, status)
	}
	return pairs, inversions
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Cells) == 0 {
		return r, fmt.Errorf("%s: no grid cells", path)
	}
	return r, nil
}

func main() {
	var (
		base      = flag.String("base", "BENCH_10.json", "committed baseline grid report")
		fresh     = flag.String("fresh", "", "freshly generated grid report to gate")
		threshold = flag.Float64("threshold", 0.25, "maximum allowed fractional mean regression per cell")
	)
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "perfgate: -fresh is required")
		os.Exit(2)
	}
	baseRep, err := load(*base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	freshRep, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfgate: %v\n", err)
		os.Exit(2)
	}
	baseline := make(map[string]cell, len(baseRep.Cells))
	for _, c := range baseRep.Cells {
		baseline[key(c)] = c
	}
	matched, regressions := 0, 0
	for _, f := range freshRep.Cells {
		b, ok := baseline[key(f)]
		if !ok {
			fmt.Printf("perfgate: skip %-40s (not in baseline)\n", key(f))
			continue
		}
		if b.MeanMS <= 0 || f.MeanMS <= 0 {
			fmt.Printf("perfgate: skip %-40s (degenerate mean)\n", key(f))
			continue
		}
		matched++
		ratio := f.MeanMS/b.MeanMS - 1
		status := "ok"
		if ratio > *threshold {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("perfgate: %-40s base %8.0f ms  fresh %8.0f ms  %+6.1f%%  %s\n",
			key(f), b.MeanMS, f.MeanMS, 100*ratio, status)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "perfgate: no cells matched between reports")
		os.Exit(2)
	}
	pairs, inversions := incrementalInversions(freshRep.Cells)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d of %d cells regressed beyond %.0f%%\n",
			regressions, matched, 100**threshold)
	}
	if inversions > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d of %d incremental cells slower than no-incremental\n",
			inversions, pairs)
	}
	if regressions > 0 || inversions > 0 {
		os.Exit(1)
	}
	fmt.Printf("perfgate: %d cells within %.0f%% of baseline, %d incremental cells faster than no-incremental\n",
		matched, 100**threshold, pairs)
}
