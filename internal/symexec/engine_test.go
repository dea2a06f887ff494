package symexec

import (
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/trace"
)

func shellCfg() hw.PCIConfig {
	return hw.PCIConfig{VendorID: 0x10EC, DeviceID: 0x8029, IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
}

// TestMemoryCOW checks page-level copy-on-write, and that a page and
// its symbolic overlay are shared copy-on-write separately: whether the
// other side's store is concrete or symbolic, and whether it lands on a
// concrete or a symbolic byte, a sibling's page and overlay stay
// untouched.
func TestMemoryCOW(t *testing.T) {
	base := make([]byte, 1024)
	base[100] = 0xAB
	m := NewMemory(base)
	if v, _ := m.ByteAt(100).IsConst(); v != 0xAB {
		t.Fatal("base read")
	}
	m.SetByte(100, expr.C(0x11, 8))
	child := m.Fork()
	child.SetByte(100, expr.C(0x22, 8))
	if v, _ := m.ByteAt(100).IsConst(); v != 0x11 {
		t.Fatal("parent polluted by child write")
	}
	if v, _ := child.ByteAt(100).IsConst(); v != 0x22 {
		t.Fatal("child write lost")
	}
	// Sibling fork shares the parent's page until written.
	sib := m.Fork()
	if v, _ := sib.ByteAt(100).IsConst(); v != 0x11 {
		t.Fatal("sibling read wrong")
	}
	m.SetByte(101, expr.C(0x33, 8))
	if v, _ := sib.ByteAt(101).IsConst(); v != 0 {
		t.Fatal("parent write visible in forked child")
	}
	// Multi-byte round trip.
	m.write(200, 4, word{v: 0xDEADBEEF})
	if v, _ := m.Read(200, 4).IsConst(); v != 0xDEADBEEF {
		t.Fatal("32-bit round trip")
	}
	if v, _ := m.Read(202, 2).IsConst(); v != 0xDEAD {
		t.Fatal("16-bit partial read")
	}

	x := expr.Trunc(expr.S("cow_x", 32), 8)
	y := expr.Trunc(expr.S("cow_y", 32), 8)
	for _, st := range []struct {
		name string
		addr uint32
		val  *expr.Expr
	}{
		{"concrete over concrete", 301, expr.C(0x44, 8)},
		{"concrete over symbolic", 300, expr.C(0x44, 8)},
		{"symbolic over concrete", 301, y},
		{"symbolic over symbolic", 300, y},
	} {
		m := NewMemory(base)
		m.SetByte(300, x)
		m.SetByte(301, expr.C(0xAB, 8))
		sib := m.Fork()
		p := sib.pages[1]
		pageBefore, overlayBefore := *p, *p.sym
		m.SetByte(st.addr, st.val)
		if !expr.Equal(m.ByteAt(st.addr), st.val) {
			t.Fatalf("%s: store lost: %v", st.name, m.ByteAt(st.addr))
		}
		if sib.pages[1] != p || *p != pageBefore || *p.sym != overlayBefore {
			t.Fatalf("%s: the store changed the sibling's page or overlay", st.name)
		}
		if m.pages[1] == p || ((st.addr == 300 || st.val.Kind != expr.KConst) && m.pages[1].sym == p.sym) {
			t.Fatalf("%s: the writer did not copy what it changed", st.name)
		}
		if !expr.Equal(sib.ByteAt(300), x) {
			t.Fatalf("%s: sibling reads %v at the symbolic byte", st.name, sib.ByteAt(300))
		}
		if v, ok := sib.ByteAt(301).IsConst(); !ok || v != 0xAB {
			t.Fatalf("%s: sibling reads %v at the concrete byte", st.name, sib.ByteAt(301))
		}
	}
}

func exploreDriver(t *testing.T, name string, cfg Config) *Result {
	t.Helper()
	info, err := drivers.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shell = hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
		IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
	eng := New(info.Program, cfg)
	res, err := eng.Explore()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestExploreRTL8029(t *testing.T) {
	res := exploreDriver(t, "RTL8029", Config{})
	if !res.Entries.Registered() {
		t.Fatal("entry points not discovered")
	}
	cov := res.Collector.CoveredBlocks()
	if cov < 60 {
		t.Errorf("only %d blocks covered", cov)
	}
	if res.ForkCount == 0 {
		t.Error("no forks: symbolic execution did not branch")
	}
	if len(res.Coverage) == 0 {
		t.Error("no coverage samples")
	}
	// Hardware I/O must have been observed and classified as port I/O.
	io := 0
	for _, b := range res.Collector.Blocks {
		for _, a := range b.IO {
			if a.Class == trace.ClassPortIO {
				io++
			}
		}
	}
	if io < 10 {
		t.Errorf("only %d port I/O points recorded", io)
	}
	// The multicast CRC loop must have been explored: find a driver
	// block containing a SHR instruction with shift 26 (the hash).
	found := false
	for _, b := range res.Collector.Blocks {
		for _, in := range b.Block.Instrs {
			if in.Op == isa.SHR && in.Imm == 26 {
				found = true
			}
		}
	}
	if !found {
		t.Error("CRC hash code not reached")
	}
}

func TestExploreAllDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("full exploration is slow")
	}
	for _, name := range []string{"RTL8139", "AMD PCNet", "SMSC 91C111"} {
		t.Run(name, func(t *testing.T) {
			res := exploreDriver(t, name, Config{})
			if !res.Entries.Registered() {
				t.Fatal("entries not discovered")
			}
			if res.Collector.CoveredBlocks() < 60 {
				t.Errorf("coverage too low: %d", res.Collector.CoveredBlocks())
			}
		})
	}
}

func TestExploreDMATracking(t *testing.T) {
	res := exploreDriver(t, "RTL8139", Config{})
	if len(res.DMARegions) < 2 {
		t.Errorf("DMA regions = %d, want >= 2 (ring + tx staging)", len(res.DMARegions))
	}
	// DMA-classified accesses must appear (the driver reads RX
	// headers out of the shared ring).
	dma := false
	for _, b := range res.Collector.Blocks {
		for _, a := range b.IO {
			if a.Class == trace.ClassDMA {
				dma = true
			}
		}
	}
	if !dma {
		t.Error("no DMA-classified accesses recorded")
	}
}

// TestDMARegionsDistinct: every path of an exploration repeats the
// driver's NdisMAllocateSharedMemory calls, and each call must not add
// another copy of the same region (a serial RTL8139 run used to end
// with 64 entries for its 2 regions, all scanned on every load and
// store).
func TestDMARegionsDistinct(t *testing.T) {
	res := exploreDriver(t, "RTL8139", Config{Shards: 1})
	seen := map[[2]uint32]bool{}
	for _, r := range res.DMARegions {
		if seen[r] {
			t.Fatalf("DMA region %#x registered twice: %#x", r, res.DMARegions)
		}
		seen[r] = true
	}
	if len(seen) < 2 {
		t.Errorf("DMA regions = %#x, want >= 2 (ring + tx staging)", res.DMARegions)
	}
}

func TestStrategies(t *testing.T) {
	// All three searchers must terminate and find the entry points;
	// the coverage-guided default should cover at least as much as
	// DFS (the ablation claim, checked loosely).
	covs := map[string]int{}
	for _, name := range []string{"coverage", "dfs", "bfs"} {
		factory, err := SearcherByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res := exploreDriver(t, "RTL8029", Config{Searcher: factory})
		if res.Strategy != name {
			t.Errorf("result strategy = %q, want %q", res.Strategy, name)
		}
		if !res.Entries.Registered() {
			t.Errorf("%s: entry points not discovered", name)
		}
		if res.SolverQueries == 0 {
			t.Errorf("%s: no solver queries recorded", name)
		}
		covs[name] = res.Collector.CoveredBlocks()
	}
	if covs["coverage"] < covs["dfs"]-5 {
		t.Errorf("coverage-guided (%d) much worse than DFS (%d)", covs["coverage"], covs["dfs"])
	}
}

func TestSearcherByName(t *testing.T) {
	if _, err := SearcherByName("mincount"); err != nil {
		t.Error("historical alias mincount not accepted")
	}
	if _, err := SearcherByName("nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
	names := SearcherNames()
	if len(names) < 3 {
		t.Errorf("SearcherNames = %v", names)
	}
}

// TestSearcherDisciplines pins the frontier orders: DFS drives the
// newest state, BFS the oldest, and both track removals.
func TestSearcherDisciplines(t *testing.T) {
	a, b, c := &State{ID: 1}, &State{ID: 2}, &State{ID: 3}
	dfs := NewDFS(nil)
	dfs.Update([]*State{a, b}, nil)
	if got := dfs.Select([]*State{a, b}); got != b {
		t.Fatal("DFS did not pick the newest state")
	}
	dfs.Update([]*State{c}, []*State{b})
	if got := dfs.Select([]*State{a, c}); got != c {
		t.Fatal("DFS did not follow the fork child")
	}
	bfs := NewBFS(nil)
	bfs.Update([]*State{a, b}, nil)
	if got := bfs.Select([]*State{a, b}); got != a {
		t.Fatal("BFS did not pick the oldest state")
	}
	bfs.Update([]*State{c}, []*State{a})
	if got := bfs.Select([]*State{b, c}); got != b {
		t.Fatal("BFS order broken after removal")
	}
}
