package main

import "testing"

func TestIncrementalInversions(t *testing.T) {
	cells := []cell{
		{Solver: "incremental", Workers: 1, MeanMS: 300},
		{Solver: "no-incremental", Workers: 1, Searcher: "coverage", MeanMS: 250}, // inverted
		{Solver: "incremental", Workers: 4, MeanMS: 150},
		{Solver: "no-incremental", Workers: 4, MeanMS: 220},
		{Solver: "incremental", Workers: 4, ShardFactor: 2, MeanMS: 900},   // no partner
		{Solver: "no-incremental", Workers: 4, Searcher: "dfs", MeanMS: 1}, // no partner
	}
	pairs, inversions := noInversion.check(cells)
	if pairs != 2 || inversions != 1 {
		t.Fatalf("pairs=%d inversions=%d, want 2 and 1", pairs, inversions)
	}
}

func TestWorkerScaling(t *testing.T) {
	cells := []cell{
		{Solver: "incremental", Workers: 1, MeanMS: 100},
		{Solver: "incremental", Workers: 4, MeanMS: 110}, // at the 10% limit
		{Solver: "incremental", Workers: 1, Scenario: "s", MeanMS: 100},
		{Solver: "incremental", Workers: 4, Scenario: "s", MeanMS: 111}, // over it
		{Solver: "no-incremental", Workers: 1, Searcher: "dfs", MeanMS: 1},
		{Solver: "no-incremental", Workers: 4, Searcher: "dfs", MeanMS: 9}, // not incremental
		{Solver: "incremental", Workers: 4, ShardFactor: 2, MeanMS: 900},   // no partner
	}
	pairs, failures := workerScaling.check(cells)
	if pairs != 2 || failures != 1 {
		t.Fatalf("pairs=%d failures=%d, want 2 and 1", pairs, failures)
	}
}

// TestWorkerScalingBaselines runs the w4-vs-w1 invariant over the
// committed grid reports: BENCH_9's incremental w4 cell (825 ms vs
// 702 ms at w1) is the inversion it exists to catch; the others hold.
func TestWorkerScalingBaselines(t *testing.T) {
	for path, wantFail := range map[string]bool{
		"../../BENCH_8.json":  false,
		"../../BENCH_9.json":  true,
		"../../BENCH_10.json": false,
		"../../BENCH_11.json": false,
	} {
		r, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		pairs, failures := workerScaling.check(r.Cells)
		if pairs == 0 {
			t.Errorf("%s: no w4/w1 pair", path)
		}
		if (failures > 0) != wantFail {
			t.Errorf("%s: %d of %d pairs failed, want failure=%v", path, failures, pairs, wantFail)
		}
	}
}

// TestGateNeedsPairs pins the exit statuses: a fresh report that lacks
// the pairs an invariant needs cannot be gated (2) instead of passing
// with nothing checked.
func TestGateNeedsPairs(t *testing.T) {
	full := []cell{
		{Solver: "incremental", Workers: 1, MeanMS: 200},
		{Solver: "no-incremental", Workers: 1, MeanMS: 300},
		{Solver: "incremental", Workers: 4, MeanMS: 150},
		{Solver: "no-incremental", Workers: 4, MeanMS: 250},
	}
	slowW4 := append([]cell(nil), full...)
	slowW4[2].MeanMS = 230
	for name, tc := range map[string]struct {
		cells []cell
		want  int
	}{
		"all pairs":        {full, 0},
		"w4 slower":        {slowW4, 1},
		"no ablation cell": {[]cell{full[0], full[2]}, 2},
		"no w1 cell":       {full[2:], 2},
	} {
		// The fresh report is its own baseline: only the invariants
		// can fail.
		fresh := report{Cells: tc.cells}
		if got := gate(fresh, fresh, 0.25); got != tc.want {
			t.Errorf("%s: gate = %d, want %d", name, got, tc.want)
		}
	}
}
