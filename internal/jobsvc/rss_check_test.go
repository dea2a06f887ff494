package jobsvc

import (
	"context"
	"runtime"
	"testing"
)

func TestArenaMemoryReclaimed(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	run := func() {
		if _, err := runSpec(context.Background(), JobSpec{Driver: "RTL8029", Seed: 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm caches, lazy init
	base := heap()
	for i := 0; i < 10; i++ {
		run()
	}
	after := heap()
	t.Logf("heap base %d KiB, after 10 jobs %d KiB", base/1024, after/1024)
	if after > base+base/2+1<<20 {
		t.Errorf("heap grew from %d to %d after jobs completed; arenas not reclaimed?", base, after)
	}
}
