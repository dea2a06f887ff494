package symexec

import (
	"fmt"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/hw"
)

// TestShardFactorDeterminismMatrix quantifies the scheduling contract:
// the fan-out schedule (Shards groups, fixed by Shards) gives a
// bit-identical result across worker counts and across dispatch
// modes (in-memory fork-join vs the wire-codec remote runner, vs a
// mix with local fallbacks). Everything downstream of the schedule is
// free to vary; the traces and solver counters are not. The schedule
// splits each phase into exactly one group per shard (a shard factor
// of 1), the only granularity the engine has.
func TestShardFactorDeterminismMatrix(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	shell := hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
		IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
	t.Run("factor=1", func(t *testing.T) {
		base := exploreDriver(t, "RTL8029", Config{Workers: 1})
		want, wantCounts := traceFingerprint(base), solverCounts(base)
		check := func(t *testing.T, res *Result) {
			t.Helper()
			if got := traceFingerprint(res); got != want {
				t.Fatalf("diverged from the workers=1 run (fingerprints %d vs %d bytes)", len(got), len(want))
			}
			if got := solverCounts(res); got != wantCounts {
				t.Fatalf("solver counters diverged:\n got %s\nwant %s", got, wantCounts)
			}
		}

		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
				check(t, exploreDriver(t, "RTL8029", Config{Workers: workers}))
			})
		}
		for _, mode := range []struct {
			name       string
			localEvery int
		}{{"remote", 0}, {"mixed", 2}} {
			t.Run(mode.name, func(t *testing.T) {
				cfg := Config{Workers: 2, Shell: shell}
				cfg.ShardRunner = &wireRunner{
					prog:       info.Program,
					cfg:        Config{Shell: shell},
					localEvery: mode.localEvery,
				}
				res, err := New(info.Program, cfg).Explore()
				if err != nil {
					t.Fatal(err)
				}
				check(t, res)
			})
		}
	})
}

// TestShardsEffectiveSurfaced pins the parallelism-collapse stat: a
// run whose phases fan out must report exactly Shards groups, and a
// run that cannot fan out (Shards=1) must report zero with no
// collapses counted as fan-out loss.
func TestShardsEffectiveSurfaced(t *testing.T) {
	var def Config
	def.defaults()
	res := exploreDriver(t, "RTL8029", Config{Workers: 2})
	if want := def.Shards; res.ShardsEffective != want {
		t.Fatalf("ShardsEffective = %d, want Shards = %d for the default config", res.ShardsEffective, want)
	}
	serial := exploreDriver(t, "RTL8029", Config{Shards: 1})
	if serial.ShardsEffective != 0 || serial.ShardCollapses != 0 {
		t.Fatalf("Shards=1 reported effective=%d collapses=%d, want 0/0",
			serial.ShardsEffective, serial.ShardCollapses)
	}
}
