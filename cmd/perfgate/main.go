// Command perfgate is the CI performance-regression gate: it compares
// a freshly generated revbench grid report against the committed
// baseline (BENCH_12.json) and fails when any matching cell's mean
// wall-clock regressed beyond the threshold.
//
// Cells match on (solver, searcher, workers, shard_factor, scenario).
// solver and shard_factor are set only in historical reports; an
// absent solver means "incremental" and an absent searcher means
// "coverage", so baselines written before those axes existed or after
// they were retired still match fresh cells. Cells present in only
// one report are skipped with a note, so a reduced CI grid (fewer
// repeats, no cluster scenario) gates only what it actually measured,
// and baseline cells of retired modes (the "portfolio" and
// "no-incremental" solver cells, the "straggler-static" and
// "straggler-nosteal" scenarios) are skipped rather than failed.
// Timing noise is expected — the default 25% threshold is meant to
// catch structural regressions (a scheduler serializing, a solver
// losing its sessions or its cache), not jitter.
//
// It also checks one invariant inside the fresh report alone, a
// regression even when every cell is within the threshold of a
// baseline that already carries it: an incremental cell at 4 workers
// must not be more than 10% slower than the 1-worker cell at the same
// searcher, shard factor and scenario — adding workers must not cost
// time. A fresh report with no such pair fails as unusable (exit 2),
// like one that matches no baseline cell.
//
// Beside the timing checks it lists every matched cell whose
// deterministic solver counters (queries, cache hits, model hits, SAT
// decisions and conflicts) differ from the baseline's. The counters
// repeat exactly run to run, so a move means the code changed what
// the solver does. The list is informational and never fails the gate.
//
// Usage:
//
//	revbench -grid -repeats 2 -grid-out fresh.json
//	perfgate -base BENCH_12.json -fresh fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type cell struct {
	// Solver is set only in historical reports (BENCH_8 to BENCH_12),
	// written while revbench still had a solver-mode axis.
	Solver   string `json:"solver,omitempty"`
	Searcher string `json:"searcher,omitempty"`
	Workers  int    `json:"workers"`
	// ShardFactor is set only in historical reports (BENCH_8 to BENCH_11),
	// written while revbench still had a shard-factor axis.
	ShardFactor int     `json:"shard_factor,omitempty"`
	Scenario    string  `json:"scenario,omitempty"`
	MeanMS      float64 `json:"mean_ms"`

	SolverQueries int64 `json:"solver_queries"`
	CacheHits     int64 `json:"cache_hits"`
	ModelHits     int64 `json:"model_hits"`
	// Search is absent in reports written before the SAT counters
	// existed (BENCH_8 to BENCH_11).
	Search *struct {
		Decisions int64 `json:"decisions"`
		Conflicts int64 `json:"conflicts"`
	} `json:"solver_search,omitempty"`
}

// counterMoves describes how fresh's deterministic counters differ
// from base's, one "name base -> fresh" entry per moved counter. It
// returns nil when they match or either cell predates the SAT counters.
func counterMoves(base, fresh cell) []string {
	if base.Search == nil || fresh.Search == nil {
		return nil
	}
	var moves []string
	for _, c := range []struct {
		name        string
		base, fresh int64
	}{
		{"queries", base.SolverQueries, fresh.SolverQueries},
		{"cache_hits", base.CacheHits, fresh.CacheHits},
		{"model_hits", base.ModelHits, fresh.ModelHits},
		{"decisions", base.Search.Decisions, fresh.Search.Decisions},
		{"conflicts", base.Search.Conflicts, fresh.Search.Conflicts},
	} {
		if c.base != c.fresh {
			moves = append(moves, fmt.Sprintf("%s %d -> %d", c.name, c.base, c.fresh))
		}
	}
	return moves
}

type report struct {
	Bench string `json:"bench"`
	Cells []cell `json:"cells"`
}

func key(c cell) string {
	return fmt.Sprintf("%s/%s/w%d/f%d/%s", solverMode(c), searcher(c), c.Workers, c.ShardFactor, c.Scenario)
}

// solverMode is the cell's solver mode. Reports written after the
// solver-mode axis was retired omit the field; they all ran the
// incremental sessions, the only mode left.
func solverMode(c cell) string {
	if c.Solver == "" {
		return "incremental"
	}
	return c.Solver
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

// scalingAxes is a cell's key without the solver mode and worker
// count: the cells a 4-worker cell is compared against share it.
func scalingAxes(c cell) string {
	return fmt.Sprintf("%s/f%d/%s", searcher(c), c.ShardFactor, c.Scenario)
}

// workerScaling checks that every incremental cell at 4 workers is at
// most 10% slower than the 1-worker cell at the same scalingAxes. It
// prints every pair and returns how many pairs the report holds and
// how many of them fail.
func workerScaling(cells []cell) (pairs, failures int) {
	incremental := func(c cell) bool { return solverMode(c) == "incremental" }
	w1 := make(map[string]cell)
	for _, c := range cells {
		if incremental(c) && c.Workers == 1 {
			w1[scalingAxes(c)] = c
		}
	}
	for _, c := range cells {
		p, ok := w1[scalingAxes(c)]
		if !incremental(c) || c.Workers != 4 || !ok {
			continue
		}
		pairs++
		status := "ok"
		if c.MeanMS > 1.10*p.MeanMS {
			status = "FAIL"
			failures++
		}
		fmt.Printf("perfgate: w4 vs w1 %-24s %8.0f ms vs %8.0f ms  %s\n",
			scalingAxes(c), c.MeanMS, p.MeanMS, status)
	}
	return pairs, failures
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
		base      = flag.String("base", "BENCH_12.json", "committed baseline grid report")
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

// gate compares fresh against base and checks fresh's worker-scaling
// invariant. It returns the exit status: 0 when everything holds, 1 on
// a regression or a failed invariant, 2 when the reports cannot be
// gated — no cell matches the baseline, or fresh has no w4/w1 pair.
func gate(base, fresh report, threshold float64) int {
	baseline := make(map[string]cell, len(base.Cells))
	for _, c := range base.Cells {
		baseline[key(c)] = c
	}
	measured := make(map[string]bool, len(fresh.Cells))
	for _, f := range fresh.Cells {
		measured[key(f)] = true
	}
	for _, b := range base.Cells {
		if !measured[key(b)] {
			fmt.Printf("perfgate: skip %-40s (not in fresh report)\n", key(b))
		}
	}
	matched, regressions := 0, 0
	var moved []string
	for _, f := range fresh.Cells {
		b, ok := baseline[key(f)]
		if !ok {
			fmt.Printf("perfgate: skip %-40s (not in baseline)\n", key(f))
			continue
		}
		if m := counterMoves(b, f); m != nil {
			moved = append(moved, fmt.Sprintf("perfgate: counters moved %-40s %s", key(f), strings.Join(m, ", ")))
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
	for _, m := range moved {
		fmt.Println(m)
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
	pairs, failures := workerScaling(fresh.Cells)
	if pairs == 0 {
		fmt.Fprintln(os.Stderr, "perfgate: no w4/w1 pair in the fresh report")
		return 2
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "perfgate: w4 vs w1: %d of %d pairs failed\n", failures, pairs)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Printf("perfgate: %d cells within %.0f%% of baseline; held: %d w4 vs w1 pairs\n",
		matched, 100*threshold, pairs)
	return 0
}
