package revnic_test

import (
	"fmt"
	"sync"
	"testing"

	"revnic/internal/core"
	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/symexec"
)

// reverse runs the whole pipeline on a corpus driver at seed 42, in
// a fresh expression arena as every revnicd job and benchmark op does,
// so each run allocates its expression nodes instead of finding them
// interned by an earlier run.
func reverse(t *testing.T, name string, workers int) (*core.Reversed, error) {
	t.Helper()
	info, err := drivers.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return core.ReverseEngineer(info.Program, core.Options{
		Shell: core.ShellConfig(info), DriverName: info.Name,
		Engine: symexec.Config{Seed: 42, Workers: workers, Arena: expr.NewArena()},
	})
}

// exploreAllocCeiling bounds the heap allocations of one serial
// RTL8029 run. Building every solver session from nothing and copying
// a 1 MB base image per engine cost ~54k allocations; recycled
// sessions and a trimmed image cost ~25k (~21.9k with witnesses).
// Concrete words in registers and memory pages, and a block step that
// allocates nothing for scheduling, cost ~10.1k; symbol lists on the
// expression nodes (slicing and query symbols without name sets) cost
// ~8.9k, measured in the process-wide default arena where a repeat
// run interns no new node. In a fresh arena per run, which also pays
// for node allocation and symbol lists, the same run costs ~10.4k;
// the ceiling keeps ~20% headroom over that.
const exploreAllocCeiling = 12500

// TestExploreAllocationCeiling guards the allocation diet of the
// exploration path: after a warm-up run has put its solver sessions on
// the free list, a serial RTL8029 run stays under the ceiling.
func TestExploreAllocationCeiling(t *testing.T) {
	run := func() {
		if _, err := reverse(t, "RTL8029", 1); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(3, run); n > exploreAllocCeiling {
		t.Fatalf("serial RTL8029 run: %.0f allocations, ceiling %d", n, exploreAllocCeiling)
	}
}

// summary is everything of a run that must not depend on the worker
// count or on which recycled solver sessions it drew: the synthesized
// code and the deterministic exploration and solver counters.
func summary(r *core.Reversed) string {
	x := r.Exploration
	return fmt.Sprintf("exec=%d forks=%d killed=%d translated=%d queries=%d hits=%d modelHits=%d search=%+v\n%s",
		x.ExecutedBlocks, x.ForkCount, x.KilledLoops, x.TranslatedBlocks,
		x.SolverQueries, x.SolverCacheHits, x.SolverModelHits, x.SolverSearch, r.Synth.Code)
}

// TestConcurrentExplorationsSharePool explores two drivers from three
// goroutines at once, at 1, 2 and 4 workers, all drawing solver
// sessions from the one process-wide free list: each run must equal
// the serial run of its driver.
func TestConcurrentExplorationsSharePool(t *testing.T) {
	names := []string{"RTL8029", "RTL8139"}
	want := map[string]string{}
	for _, name := range names {
		r, err := reverse(t, name, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = summary(r)
	}
	var wg sync.WaitGroup
	for _, workers := range []int{1, 2, 4} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				r, err := reverse(t, name, workers)
				if err != nil {
					t.Error(err)
					return
				}
				if got := summary(r); got != want[name] {
					t.Errorf("%s at %d workers, concurrent with other runs, differs from its serial run", name, workers)
				}
			}
		}()
	}
	wg.Wait()
}
