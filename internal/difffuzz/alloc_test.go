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
// 12k-15k (15.2k, 12.8k, 11.6k, 12.0k, 12.8k), and running the
// synthesized driver on vm.Machine to 10.8k-13.8k (13.8k, 11.5k,
// 10.8k, 11.2k, 12.0k). Keying coverage on block edges and access
// pairs, indexing the graph once per harness and reusing device
// models cut it to 8.8k-11.6k (11.6k, 10.6k, 8.8k, 10.3k, 10.1k).
// Dropping the OS call log, recycling frame buffers and keeping the
// trace on the machine cut it to 6.1k-8.3k (8.3k, 7.2k, 6.1k, 7.3k,
// 7.4k); the ceilings leave about a quarter of headroom.
var fuzzRoundAllocCeiling = map[string]float64{
	"AMD PCNet":   10400,
	"RTL8139":     9000,
	"SMSC 91C111": 7600,
	"RTL8029":     9200,
	"SBLK100":     9200,
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
