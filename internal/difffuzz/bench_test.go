package difffuzz

import (
	"testing"

	"revnic/internal/drivers"
)

// BenchmarkFuzzRound runs one 128-schedule fuzzing round at workers 2
// on every corpus device, the per-op shape of the benchmark's fuzz
// workload. Harnesses are built before the timer starts, so the
// number is schedule execution only: rig construction, both drivers,
// the device models and the trace oracle.
func BenchmarkFuzzRound(b *testing.B) {
	var hs []*Harness
	for _, info := range drivers.Corpus() {
		hs = append(hs, harnessFor(b, info.Name, ""))
	}
	b.ReportAllocs()
	schedules := 0
	for b.Loop() {
		for _, h := range hs {
			rep, err := Fuzz(h, Config{Device: h.Info.Name, Seed: 1, Budget: 128, Workers: 2})
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Divergences) > 0 || len(rep.Errors) > 0 {
				b.Fatalf("%s: %d divergences, %d errors on a clean driver", h.Info.Name, len(rep.Divergences), len(rep.Errors))
			}
			schedules += rep.Schedules
		}
	}
	b.ReportMetric(float64(schedules)/b.Elapsed().Seconds(), "schedules/s")
}
