// Command perfgate is the CI performance-regression gate: it compares
// a freshly generated revbench grid report against the committed
// baseline (BENCH_11.json) and fails when any matching cell's mean
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
// It also checks two invariants inside the fresh report alone, each a
// regression even when every cell is within the threshold of a
// baseline that already carries it:
//
//   - an "incremental" cell must not be slower than the
//     "no-incremental" cell at the same searcher, workers, shard factor
//     and scenario: sessions exist to make solving cheaper;
//   - an "incremental" cell at 4 workers must not be more than 10%
//     slower than the 1-worker cell at the same searcher, shard factor
//     and scenario: adding workers must not cost time.
//
// A fresh report with no pair for either invariant fails as unusable
// (exit 2), like one that matches no baseline cell.
//
// Usage:
//
//	revbench -grid -repeats 2 -grid-out fresh.json
//	perfgate -base BENCH_11.json -fresh fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
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

// searcher is the cell's searcher. Reports written before the
// searcher axis existed omit the field; they all ran the
// coverage-guided default, so normalize rather than orphan every
// historical baseline cell.
func searcher(c cell) string {
	if c.Searcher == "" {
		return "coverage"
	}
	return c.Searcher
}

// axes is a cell's key without the solver mode: the cells an
// incremental cell is compared against share it.
func axes(c cell) string {
	return fmt.Sprintf("%s/w%d/f%d/%s", searcher(c), c.Workers, c.ShardFactor, c.Scenario)
}

// scalingAxes is a cell's key without the solver mode and worker
// count: the cells a 4-worker cell is compared against share it.
func scalingAxes(c cell) string {
	return fmt.Sprintf("%s/f%d/%s", searcher(c), c.ShardFactor, c.Scenario)
}

// invariant is a cross-cell check inside one report: each cell that
// subject selects is paired with the cell that partner selects at the
// same key, and fails when its mean exceeds tolerance times the
// partner's.
type invariant struct {
	name             string
	subject, partner func(cell) bool
	key              func(cell) string
	tolerance        float64
}

// check prints every pair and returns how many pairs the report holds
// and how many of them fail.
func (inv invariant) check(cells []cell) (pairs, failures int) {
	partners := make(map[string]cell)
	for _, c := range cells {
		if inv.partner(c) {
			partners[inv.key(c)] = c
		}
	}
	for _, c := range cells {
		p, ok := partners[inv.key(c)]
		if !inv.subject(c) || !ok {
			continue
		}
		pairs++
		status := "ok"
		if c.MeanMS > inv.tolerance*p.MeanMS {
			status = "FAIL"
			failures++
		}
		fmt.Printf("perfgate: %s %-24s %8.0f ms vs %8.0f ms  %s\n",
			inv.name, inv.key(c), c.MeanMS, p.MeanMS, status)
	}
	return pairs, failures
}

func incremental(c cell) bool { return c.Solver == "incremental" }

var (
	// noInversion: an incremental cell is not slower than its
	// no-incremental ablation.
	noInversion = invariant{
		name:      "incremental vs no-incremental",
		subject:   incremental,
		partner:   func(c cell) bool { return c.Solver == "no-incremental" },
		key:       axes,
		tolerance: 1,
	}
	// workerScaling: an incremental cell at 4 workers is at most 10%
	// slower than the 1-worker cell.
	workerScaling = invariant{
		name:      "incremental w4 vs w1",
		subject:   func(c cell) bool { return incremental(c) && c.Workers == 4 },
		partner:   func(c cell) bool { return incremental(c) && c.Workers == 1 },
		key:       scalingAxes,
		tolerance: 1.10,
	}
)

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
		base      = flag.String("base", "BENCH_11.json", "committed baseline grid report")
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
	os.Exit(gate(baseRep, freshRep, *threshold))
}

// gate compares fresh against base and checks fresh's invariants. It
// returns the exit status: 0 when everything holds, 1 on a regression
// or a failed invariant, 2 when the reports cannot be gated — no cell
// matches the baseline, or fresh has no pair for an invariant.
func gate(base, fresh report, threshold float64) int {
	baseline := make(map[string]cell, len(base.Cells))
	for _, c := range base.Cells {
		baseline[key(c)] = c
	}
	matched, regressions := 0, 0
	for _, f := range fresh.Cells {
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
		if ratio > threshold {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("perfgate: %-40s base %8.0f ms  fresh %8.0f ms  %+6.1f%%  %s\n",
			key(f), b.MeanMS, f.MeanMS, 100*ratio, status)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "perfgate: no cells matched between reports")
		return 2
	}
	failed := regressions > 0
	if failed {
		fmt.Fprintf(os.Stderr, "perfgate: %d of %d cells regressed beyond %.0f%%\n",
			regressions, matched, 100*threshold)
	}
	var summary []string
	for _, inv := range []invariant{noInversion, workerScaling} {
		pairs, failures := inv.check(fresh.Cells)
		if pairs == 0 {
			fmt.Fprintf(os.Stderr, "perfgate: no %s pair in the fresh report\n", inv.name)
			return 2
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "perfgate: %s: %d of %d pairs failed\n", inv.name, failures, pairs)
			failed = true
		}
		summary = append(summary, fmt.Sprintf("%d %s pairs", pairs, inv.name))
	}
	if failed {
		return 1
	}
	fmt.Printf("perfgate: %d cells within %.0f%% of baseline; held: %s\n",
		matched, 100*threshold, strings.Join(summary, ", "))
	return 0
}
