package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"revnic/internal/drivers"
	"revnic/internal/experiments"
	"revnic/internal/expr"
	"revnic/internal/solver"
	"revnic/internal/symexec"
)

// The ablation grid (-grid): reverse engineer the full four-driver
// workload under each solver configuration × worker count, repeated
// -repeats times, and write mean/std wall-clock per cell as JSON.
// Every cell explores the same deterministic schedule (fixed seed,
// same searcher), so the grid isolates solver-path cost: the
// incremental default (assumption-trail sessions + counterexample
// index) versus the no-incremental ablation.
// Each run gets a fresh expression arena, so no interning carries
// over between cells and timings stay comparable.

type gridCell struct {
	// Solver names the solver configuration: "incremental" (the
	// default push/pop sessions) or "no-incremental" (ablation:
	// one-shot solves only).
	Solver  string `json:"solver"`
	Workers int    `json:"workers"`
	// Searcher names the path-selection strategy the cell ran with.
	// Empty means the grid's -strategy flag (historically always
	// "coverage"); the searcher-axis cells pin "dfs" and "bfs"
	// explicitly. Different searchers explore different schedules, so
	// these cells have independent counter baselines.
	Searcher string `json:"searcher,omitempty"`
	// ShardFactor is the scheduling-granularity multiplier the cell
	// ran with (0 = the engine's auto factor). Like seed it is part of
	// the deterministic schedule, so cells with different factors have
	// independent counter baselines.
	ShardFactor int `json:"shard_factor,omitempty"`
	// Scenario tags cells outside the plain solver grid; the
	// coordinator straggler cells use "straggler-nosteal" and
	// "straggler-steal" (one slow peer, work queue with stealing off
	// vs on).
	Scenario string `json:"scenario,omitempty"`
	// Wall-clock milliseconds for the whole four-driver workload (one
	// coordinator job for the straggler cells).
	MeanMS float64   `json:"mean_ms"`
	StdMS  float64   `json:"std_ms"`
	RunsMS []float64 `json:"runs_ms"`
	// Solver counters summed over the four drivers (identical across
	// repeats and across solver configurations — determinism check).
	SolverQueries int64 `json:"solver_queries"`
	CacheHits     int64 `json:"cache_hits"`
	ModelHits     int64 `json:"model_hits"`
	CoveredBlocks int   `json:"covered_blocks"`
	// Search sums the SAT-level work behind the queries (decisions,
	// conflicts, session reuse). It repeats across repeats but not
	// across solver configurations: one-shot solving decides from
	// scratch and never opens a session.
	Search solver.SearchStats `json:"solver_search"`
	// SpeedupX, on the straggler-steal cell, is the no-steal cell's
	// mean divided by this cell's mean: how much stealing recovers from
	// one slow peer.
	SpeedupX float64 `json:"speedup_x,omitempty"`
}

type gridReport struct {
	Bench    string     `json:"bench"`
	Date     string     `json:"date"`
	Strategy string     `json:"strategy"`
	Repeats  int        `json:"repeats"`
	Drivers  []string   `json:"drivers"`
	Cells    []gridCell `json:"cells"`
}

func runGrid(strategy string, searcher symexec.SearcherFactory, repeats int, out, csvPath string, withCluster bool) error {
	if repeats < 1 {
		repeats = 1
	}
	type mode struct {
		name  string
		noInc bool
	}
	modes := []mode{
		{name: "incremental"},
		{name: "no-incremental", noInc: true},
	}
	var names []string
	for _, d := range drivers.All() {
		names = append(names, d.Name)
	}
	report := gridReport{
		Bench:    "revbench-grid",
		Date:     time.Now().UTC().Format("2006-01-02"),
		Strategy: strategy,
		Repeats:  repeats,
		Drivers:  names,
	}
	// runOnce times one four-driver run of cell and records its solver
	// counters (identical on every run, so the last write stands).
	runOnce := func(cell *gridCell, m mode) error {
		cellSearcher := searcher
		if cell.Searcher != "" {
			var err error
			cellSearcher, err = symexec.SearcherByName(cell.Searcher)
			if err != nil {
				return fmt.Errorf("grid cell %s: %w", cell.Searcher, err)
			}
		}
		start := time.Now()
		ctx, err := experiments.NewContextCfg(experiments.ContextConfig{
			Workers:                  cell.Workers,
			Searcher:                 cellSearcher,
			Arena:                    expr.NewArena(),
			DisableIncrementalSolver: m.noInc,
			ShardFactor:              cell.ShardFactor,
		})
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("grid cell %s/w%d/f%d: %w", m.name, cell.Workers, cell.ShardFactor, err)
		}
		cell.RunsMS = append(cell.RunsMS, float64(elapsed.Microseconds())/1000)
		cell.SolverQueries, cell.CacheHits, cell.ModelHits, cell.CoveredBlocks = 0, 0, 0, 0
		cell.Search = solver.SearchStats{}
		for _, d := range names {
			e := ctx.Get(d).Exploration
			cell.SolverQueries += e.SolverQueries
			cell.CacheHits += e.SolverCacheHits
			cell.ModelHits += e.SolverModelHits
			cell.CoveredBlocks += e.Collector.CoveredBlocks()
			cell.Search.Add(e.SolverSearch)
		}
		return nil
	}
	finish := func(cell gridCell) gridCell {
		cell.MeanMS, cell.StdMS = meanStd(cell.RunsMS)
		label := cell.Searcher
		if label == "" {
			label = strategy
		}
		fmt.Fprintf(os.Stderr, "revbench: grid %-14s workers=%d factor=%d searcher=%s: %.0f ms ± %.0f (%d queries, %d cache hits, %d model reuses, %d SAT decisions)\n",
			cell.Solver, cell.Workers, cell.ShardFactor, label, cell.MeanMS, cell.StdMS,
			cell.SolverQueries, cell.CacheHits, cell.ModelHits, cell.Search.Decisions)
		return cell
	}
	runCell := func(cell gridCell, m mode) (gridCell, error) {
		for rep := 0; rep < repeats; rep++ {
			if err := runOnce(&cell, m); err != nil {
				return cell, err
			}
		}
		return finish(cell), nil
	}
	// The solver modes of one worker count alternate run by run, so a
	// slow spell on a shared host lands on both cells of the pair that
	// perfgate compares, not on one of them.
	for _, workers := range []int{1, 4} {
		pair := make([]gridCell, len(modes))
		for i, m := range modes {
			pair[i] = gridCell{Solver: m.name, Workers: workers}
		}
		for rep := 0; rep < repeats; rep++ {
			for i, m := range modes {
				if err := runOnce(&pair[i], m); err != nil {
					return err
				}
			}
		}
		for _, c := range pair {
			report.Cells = append(report.Cells, finish(c))
		}
	}
	// The scheduling-granularity axis: the default solver at full
	// parallelism, across explicit shard factors. Factor 1 is the
	// coarse pre-factor schedule; each factor is its own deterministic
	// schedule, so counters differ across factors but not across
	// repeats.
	for _, sf := range []int{1, 2, 4} {
		cell, err := runCell(gridCell{Solver: "incremental", Workers: 4, ShardFactor: sf}, modes[0])
		if err != nil {
			return err
		}
		report.Cells = append(report.Cells, cell)
	}
	// The searcher axis: the default solver at full parallelism under
	// each non-default path-selection strategy. The plain cells above
	// already cover the -strategy searcher (coverage by default), so
	// this adds the DFS and BFS ablations the paper's exploration
	// section compares against.
	for _, name := range []string{"dfs", "bfs"} {
		if name == strategy {
			continue
		}
		cell, err := runCell(gridCell{Solver: "incremental", Workers: 4, Searcher: name}, modes[0])
		if err != nil {
			return err
		}
		report.Cells = append(report.Cells, cell)
	}
	if withCluster {
		cells, err := runStragglerScenario(repeats)
		if err != nil {
			return err
		}
		report.Cells = append(report.Cells, cells...)
	}
	if csvPath != "" {
		if err := writeGridCSV(csvPath, report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "revbench: wrote per-run CSV to %s\n", csvPath)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "revbench: wrote grid report to %s\n", out)
	return nil
}

// writeGridCSV exports every individual run of every cell as one CSV
// row, for spreadsheet analysis beyond the mean/std the JSON carries.
func writeGridCSV(path string, report gridReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"scenario", "solver", "searcher", "workers", "shard_factor", "rep", "ms"}); err != nil {
		return err
	}
	for _, c := range report.Cells {
		searcher := c.Searcher
		if searcher == "" {
			searcher = report.Strategy
		}
		for rep, ms := range c.RunsMS {
			rec := []string{
				c.Scenario, c.Solver, searcher,
				strconv.Itoa(c.Workers), strconv.Itoa(c.ShardFactor),
				strconv.Itoa(rep), strconv.FormatFloat(ms, 'f', 3, 64),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	return w.Error()
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}
