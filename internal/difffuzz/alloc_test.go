package difffuzz

import (
	"testing"

	"revnic/internal/drivers"
)

// fuzzRoundAllocCeiling bounds the heap allocations of one warmed
// 128-schedule round (seed 1, workers 2) per device. Translating the
// original binary once per harness instead of once per schedule,
// recycling trace buffers and dispatching synthesized blocks through
// a dense table cut a round from 47k-81k allocations (AMD PCNet 80.6k,
// RTL8139 55.9k, SMSC 91C111 56.0k, RTL8029 61.5k, SBLK100 47.0k) to
// 12k-15k (15.2k, 12.8k, 11.6k, 12.0k, 12.8k); the ceilings leave
// about a quarter of headroom.
var fuzzRoundAllocCeiling = map[string]float64{
	"AMD PCNet":   19000,
	"RTL8139":     16000,
	"SMSC 91C111": 15000,
	"RTL8029":     15000,
	"SBLK100":     16000,
}

// TestFuzzRoundAllocationCeiling guards the allocation diet of the
// schedule path: after a warm-up round has filled the RAM and trace
// free lists, one round per device stays under its ceiling.
func TestFuzzRoundAllocationCeiling(t *testing.T) {
	for _, info := range drivers.Corpus() {
		h := harnessFor(t, info.Name, "")
		run := func() {
			if _, err := Fuzz(h, Config{Device: info.Name, Seed: 1, Budget: 128, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		n := testing.AllocsPerRun(3, run)
		t.Logf("%s: %.0f allocations", info.Name, n)
		if n > fuzzRoundAllocCeiling[info.Name] {
			t.Errorf("%s round: %.0f allocations, ceiling %.0f", info.Name, n, fuzzRoundAllocCeiling[info.Name])
		}
	}
}
