// Command perfgate is the CI performance-regression gate: it compares
// a freshly generated revbench grid report against the committed
// baseline (BENCH_9.json) and fails when any matching cell's mean
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
// Usage:
//
//	revbench -grid -repeats 2 -grid-out fresh.json
//	perfgate -base BENCH_9.json -fresh fresh.json
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
	// Reports written before the searcher axis existed omit the field;
	// they all ran the coverage-guided default, so normalize rather than
	// orphan every historical baseline cell.
	s := c.Searcher
	if s == "" {
		s = "coverage"
	}
	return fmt.Sprintf("%s/%s/w%d/f%d/%s", c.Solver, s, c.Workers, c.ShardFactor, c.Scenario)
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
		base      = flag.String("base", "BENCH_9.json", "committed baseline grid report")
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
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: %d of %d cells regressed beyond %.0f%%\n",
			regressions, matched, 100**threshold)
		os.Exit(1)
	}
	fmt.Printf("perfgate: %d cells within %.0f%% of baseline\n", matched, 100**threshold)
}
