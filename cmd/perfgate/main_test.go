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
	pairs, inversions := incrementalInversions(cells)
	if pairs != 2 || inversions != 1 {
		t.Fatalf("pairs=%d inversions=%d, want 2 and 1", pairs, inversions)
	}
}
