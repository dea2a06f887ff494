package main

import (
	"reflect"
	"testing"
)

func TestWorkerScaling(t *testing.T) {
	cells := []cell{
		{Workers: 1, MeanMS: 100},
		{Workers: 4, MeanMS: 110}, // at the 10% limit
		{Workers: 1, Scenario: "s", MeanMS: 100},
		{Solver: "incremental", Workers: 4, Scenario: "s", MeanMS: 111}, // over it
		{Solver: "no-incremental", Workers: 1, Searcher: "dfs", MeanMS: 1},
		{Solver: "no-incremental", Workers: 4, Searcher: "dfs", MeanMS: 9}, // retired mode
		{Workers: 4, ShardFactor: 2, MeanMS: 900},                          // no partner
	}
	pairs, failures := workerScaling(cells)
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
		"../../BENCH_12.json": false,
	} {
		r, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		pairs, failures := workerScaling(r.Cells)
		if pairs == 0 {
			t.Errorf("%s: no w4/w1 pair", path)
		}
		if (failures > 0) != wantFail {
			t.Errorf("%s: %d of %d pairs failed, want failure=%v", path, failures, pairs, wantFail)
		}
	}
}

// TestGateReadsHistoricalSolver gates a fresh report, written without
// a solver field, against BENCH_12, whose cells still carry one: every
// fresh cell matches its "incremental" baseline cell, and the retired
// no-incremental and straggler-nosteal cells are skipped.
func TestGateReadsHistoricalSolver(t *testing.T) {
	base, err := load("../../BENCH_12.json")
	if err != nil {
		t.Fatal(err)
	}
	var fresh report
	for _, c := range base.Cells {
		if c.Solver == "incremental" && c.Scenario != "straggler-nosteal" {
			c.Solver = ""
			fresh.Cells = append(fresh.Cells, c)
		}
	}
	if got := gate(base, fresh, 0); got != 0 {
		t.Fatalf("gate = %d, want 0", got)
	}
	if got := gate(base, report{Cells: []cell{{Workers: 4, Searcher: "dfs", MeanMS: 1}}}, 0); got != 2 {
		t.Fatalf("fresh dfs cell alone: gate = %d, want 2 (no w4/w1 pair)", got)
	}
}

// TestGateNeedsPairs pins the exit statuses: a fresh report that lacks
// the w4/w1 pair cannot be gated (2) instead of passing with nothing
// checked.
func TestGateNeedsPairs(t *testing.T) {
	full := []cell{
		{Workers: 1, MeanMS: 200},
		{Workers: 4, MeanMS: 150},
	}
	slowW4 := append([]cell(nil), full...)
	slowW4[1].MeanMS = 230
	for name, tc := range map[string]struct {
		cells []cell
		want  int
	}{
		"all pairs":  {full, 0},
		"w4 slower":  {slowW4, 1},
		"no w1 cell": {full[1:], 2},
		"no w4 cell": {full[:1], 2},
	} {
		// The fresh report is its own baseline: only the invariant
		// can fail.
		fresh := report{Cells: tc.cells}
		if got := gate(fresh, fresh, 0.25); got != tc.want {
			t.Errorf("%s: gate = %d, want %d", name, got, tc.want)
		}
	}
}

// TestCounterMoves pins the informational counter listing: a moved
// SAT counter is named with both values, equal counters and cells
// predating the SAT counters list nothing, and a move never changes
// the gate's exit status.
func TestCounterMoves(t *testing.T) {
	base, err := load("../../BENCH_12.json")
	if err != nil {
		t.Fatal(err)
	}
	b := base.Cells[0]
	if b.Search == nil || b.Search.Decisions != 95248 {
		t.Fatalf("BENCH_12 cell 0 search = %+v, want 95248 decisions", b.Search)
	}
	f := b
	search := *b.Search
	search.Decisions = 2000
	f.Search = &search
	f.ModelHits++
	want := []string{"model_hits 724 -> 725", "decisions 95248 -> 2000"}
	if got := counterMoves(b, f); !reflect.DeepEqual(got, want) {
		t.Fatalf("counterMoves = %q, want %q", got, want)
	}
	if got := counterMoves(b, b); got != nil {
		t.Fatalf("equal counters listed %q", got)
	}
	old := b
	old.Search = nil
	if got := counterMoves(old, f); got != nil {
		t.Fatalf("historical cell listed %q", got)
	}
	moved := []cell{{Workers: 1, MeanMS: 100, Search: f.Search}, {Workers: 4, MeanMS: 100, Search: f.Search}}
	same := []cell{{Workers: 1, MeanMS: 100, Search: b.Search}, {Workers: 4, MeanMS: 100, Search: b.Search}}
	if got := gate(report{Cells: same}, report{Cells: moved}, 0.25); got != 0 {
		t.Fatalf("moved counters: gate = %d, want 0", got)
	}
}

// TestDefaultBaseline checks the baseline perfgate gates against by
// default: it loads, its w4 cells hold against their w1 partners, and
// it carries the straggler-steal cell that -grid-cluster measures.
func TestDefaultBaseline(t *testing.T) {
	r, err := load("../../BENCH_13.json")
	if err != nil {
		t.Fatal(err)
	}
	if pairs, failures := workerScaling(r.Cells); pairs == 0 || failures > 0 {
		t.Fatalf("BENCH_13: %d of %d w4/w1 pairs failed", failures, pairs)
	}
	for _, c := range r.Cells {
		if c.Scenario == "straggler-steal" {
			return
		}
	}
	t.Fatal("BENCH_13 has no straggler-steal cell")
}
