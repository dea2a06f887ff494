package symexec

import (
	"fmt"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/hw"
)

// TestShardFactorDeterminismMatrix quantifies the scheduling contract
// over the new granularity knob: for each FIXED shard factor, the
// result is bit-identical across worker counts and across dispatch
// modes (in-process fork-join vs the wire-codec remote runner, vs a
// mix with local fallbacks). The factor — like Shards and Seed — is
// part of the deterministic schedule; everything downstream of the
// schedule is not.
func TestShardFactorDeterminismMatrix(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	shell := hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
		IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
	for _, factor := range []int{1, 2} {
		t.Run(fmt.Sprintf("factor=%d", factor), func(t *testing.T) {
			base := exploreDriver(t, "RTL8029", Config{Seed: 11, Workers: 1, ShardFactor: factor})
			want, wantCounts := traceFingerprint(base), solverCounts(base)

			for _, workers := range []int{2, 4} {
				res := exploreDriver(t, "RTL8029", Config{Seed: 11, Workers: workers, ShardFactor: factor})
				if got := traceFingerprint(res); got != want {
					t.Fatalf("factor=%d workers=%d diverged from workers=1 (fingerprints %d vs %d bytes)",
						factor, workers, len(got), len(want))
				}
				if got := solverCounts(res); got != wantCounts {
					t.Fatalf("factor=%d workers=%d solver counters diverged:\n got %s\nwant %s",
						factor, workers, got, wantCounts)
				}
			}
			for name, localEvery := range map[string]int{"remote": 0, "mixed": 2} {
				cfg := Config{Seed: 11, Workers: 2, ShardFactor: factor, Shell: shell}
				cfg.ShardRunner = &wireRunner{
					prog:       info.Program,
					cfg:        Config{Seed: 11, Shell: shell},
					localEvery: localEvery,
				}
				res, err := New(info.Program, cfg).Explore()
				if err != nil {
					t.Fatal(err)
				}
				if got := traceFingerprint(res); got != want {
					t.Fatalf("factor=%d %s dispatch diverged from in-process run (fingerprints %d vs %d bytes)",
						factor, name, len(got), len(want))
				}
				if got := solverCounts(res); got != wantCounts {
					t.Fatalf("factor=%d %s dispatch solver counters diverged:\n got %s\nwant %s",
						factor, name, got, wantCounts)
				}
			}
		})
	}
}

// TestShardsEffectiveSurfaced pins the parallelism-collapse stat: a
// run whose phases fan out must report the narrowest achieved width,
// and a run that cannot fan out (Shards=1) must report zero with no
// collapses counted as fan-out loss.
func TestShardsEffectiveSurfaced(t *testing.T) {
	res := exploreDriver(t, "RTL8029", Config{Seed: 11, Workers: 2})
	if res.ShardsEffective < 1 {
		t.Fatalf("ShardsEffective = %d; default config never fanned out", res.ShardsEffective)
	}
	serial := exploreDriver(t, "RTL8029", Config{Seed: 11, Shards: 1})
	if serial.ShardsEffective != 0 || serial.ShardCollapses != 0 {
		t.Fatalf("Shards=1 reported effective=%d collapses=%d, want 0/0",
			serial.ShardsEffective, serial.ShardCollapses)
	}
}
