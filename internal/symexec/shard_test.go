package symexec

import (
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"

	"revnic/internal/drivers"
	"revnic/internal/expr"
	"revnic/internal/hw"
	"revnic/internal/isa"
)

// wireRunner simulates the cluster path inside one test process: every
// shard task is marshalled to JSON, unmarshalled "on the peer",
// executed by ExecuteShardTask against a completely fresh engine
// (fresh arena, fresh translation cache — nothing shared with the
// coordinator), and the result is marshalled back. It is the
// strongest in-process stand-in for remote execution: any hidden
// dependency on coordinator state would surface as a divergence.
type wireRunner struct {
	prog       *isa.Program
	cfg        Config // peer-side config (no arena, no runner)
	localEvery int    // every Nth shard of a phase exercises the local fallback instead
}

// RunShards executes a phase's tasks concurrently, as the cluster work
// queue does, so concurrent local executions are exercised too.
func (r *wireRunner) RunShards(tasks []*ShardTask, local func(*ShardTask) (*ShardResult, error)) ([]*ShardResult, error) {
	results := make([]*ShardResult, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func(i int, task *ShardTask) {
			defer wg.Done()
			if r.localEvery > 0 && (i+1)%r.localEvery == 0 {
				results[i], errs[i] = local(task)
			} else {
				results[i], errs[i] = r.remote(task)
			}
		}(i, task)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// remote round-trips one task through the wire codec to a fresh engine.
func (r *wireRunner) remote(task *ShardTask) (*ShardResult, error) {
	b, err := json.Marshal(task)
	if err != nil {
		return nil, err
	}
	var remote ShardTask
	if err := json.Unmarshal(b, &remote); err != nil {
		return nil, err
	}
	cfg := r.cfg
	cfg.Arena = expr.NewArena()
	res, err := ExecuteShardTask(r.prog, cfg, &remote)
	if err != nil {
		return nil, err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	var back ShardResult
	if err := json.Unmarshal(rb, &back); err != nil {
		return nil, err
	}
	return &back, nil
}

// TestShardRunnerBitIdentical is the distributed mode's core
// guarantee: dispatching every shard group through the wire codec to
// a fresh peer engine — or through the local fallback, or a mix —
// merges into exactly the result the in-process fork-join produces.
func TestShardRunnerBitIdentical(t *testing.T) {
	for _, driver := range []string{"RTL8029", "RTL8139"} {
		t.Run(driver, func(t *testing.T) {
			info, err := drivers.ByName(driver)
			if err != nil {
				t.Fatal(err)
			}
			base := Config{Seed: 11, Workers: 2}
			want := traceFingerprint(exploreDriver(t, driver, base))

			for name, localEvery := range map[string]int{"remote": 0, "mixed": 2} {
				t.Run(name, func(t *testing.T) {
					shell := hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
						IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
					cfg := base
					cfg.Shell = shell
					cfg.ShardRunner = &wireRunner{
						prog:       info.Program,
						cfg:        Config{Seed: 11, Shell: shell},
						localEvery: localEvery,
					}
					eng := New(info.Program, cfg)
					res, err := eng.Explore()
					if err != nil {
						t.Fatal(err)
					}
					if got := traceFingerprint(res); got != want {
						t.Fatalf("%s dispatch diverged from in-process run (fingerprints %d vs %d bytes)",
							name, len(got), len(want))
					}
				})
			}
		})
	}
}

// TestShardRunnerSolverAndTranslationStats pins the summary counters
// that traceFingerprint does not cover: remote execution must report
// the same solver workload, and resolving remote collectors through
// the coordinator's translation cache must reproduce the single-node
// translated-block count exactly.
func TestShardRunnerSolverAndTranslationStats(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	shell := hw.PCIConfig{VendorID: info.VendorID, DeviceID: info.DeviceID,
		IOBase: 0xC000, IOSize: 0x100, IRQLine: 11}
	direct := exploreDriver(t, "RTL8029", Config{Seed: 3})

	cfg := Config{Seed: 3, Shell: shell}
	cfg.ShardRunner = &wireRunner{prog: info.Program, cfg: Config{Seed: 3, Shell: shell}}
	res, err := New(info.Program, cfg).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solverCounts(res), solverCounts(direct); got != want {
		t.Fatalf("solver stats diverged:\n remote %s\n direct %s", got, want)
	}
	if res.TranslatedBlocks != direct.TranslatedBlocks {
		t.Fatalf("translated blocks diverged: remote %d, direct %d",
			res.TranslatedBlocks, direct.TranslatedBlocks)
	}
}

// TestStateGroupRoundTrip checks the state codec in isolation: a
// group with forks, COW-shared and diverged pages, constraints and
// frames must re-encode from its decoded form byte-identically.
func TestStateGroupRoundTrip(t *testing.T) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		t.Fatal(err)
	}
	e := New(info.Program, Config{Seed: 1})
	a := e.newState()
	a.Mem.Write(0x1000, 4, e.ar.C(0xDEADBEEF, 32))
	a.Regs[2] = e.ar.Add(e.ar.S("x", 32), e.ar.C(7, 32))
	a.Constrain(e.ar.Ult(e.ar.S("x", 32), e.ar.C(100, 32)))
	a.Frames = append(a.Frames, frame{callSite: 0x40, target: 0x80, retAddr: 0x44, entrySP: 0xFF00})
	a.localCount[0x80] = 3
	b := e.fork(a) // shares a's pages COW
	b.Mem.Write(0x1002, 1, e.ar.Trunc(e.ar.S("y", 32), 8))
	b.Constrain(e.ar.Eq(e.ar.S("y", 32), e.ar.C(9, 32)))
	b.Result = e.ar.C(1, 32)
	b.Reason = TermCompleted

	g := encodeStateGroup([]*State{a, b})
	wire, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back WireStateGroup
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	ar2 := expr.NewArena()
	base := make([]byte, len(e.baseRAM))
	copy(base, e.baseRAM)
	states, err := decodeStateGroup(&back, base, ar2)
	if err != nil {
		t.Fatal(err)
	}
	re, err := json.Marshal(encodeStateGroup(states))
	if err != nil {
		t.Fatal(err)
	}
	if string(re) != string(wire) {
		t.Fatalf("round trip not identical:\n first: %d bytes\nsecond: %d bytes", len(wire), len(re))
	}
	// The shared page must stay shared after decode: one page table
	// entry, referenced by both states.
	if len(back.Pages) == 0 {
		t.Fatal("no pages encoded")
	}
	if states[0].Mem.pages[0x1000/pageSize] == states[1].Mem.pages[0x1000/pageSize] {
		t.Fatal("diverged page decoded as shared")
	}
}

// TestDecodeStateGroupRejectsMalformed exercises the decode-side
// validation: torn or corrupted payloads must produce errors, never
// panics or silently wrong states.
func TestDecodeStateGroupRejectsMalformed(t *testing.T) {
	ar := expr.NewArena()
	base := make([]byte, 4096)
	for name, g := range map[string]*WireStateGroup{
		"forward expr reference": {
			Exprs:  []expr.WireNode{{K: 3, W: 32, A: 2, B: 2}, {K: 0, W: 32, V: 1}},
			States: []WireState{{Regs: [8]int32{1, 2, 2, 2, 2, 2, 2, 2}}},
		},
		"nil register": {
			States: []WireState{{}},
		},
		"narrow register": {
			Exprs:  []expr.WireNode{{K: 0, W: 8, V: 1}},
			States: []WireState{{Regs: [8]int32{1, 1, 1, 1, 1, 1, 1, 1}}},
		},
		"wide constraint": {
			Exprs: []expr.WireNode{{K: 0, W: 32, V: 1}},
			States: []WireState{{
				Regs:        [8]int32{1, 1, 1, 1, 1, 1, 1, 1},
				Constraints: []int32{1},
			}},
		},
		"page ref out of range": {
			Exprs: []expr.WireNode{{K: 0, W: 32, V: 1}},
			States: []WireState{{
				Regs:  [8]int32{1, 1, 1, 1, 1, 1, 1, 1},
				Pages: map[uint32]int32{0: 3},
			}},
		},
		"page offset out of range": {
			Exprs: []expr.WireNode{{K: 0, W: 8, V: 1}},
			Pages: []WirePage{{Off: []uint16{9999}, Ref: []int32{1}}},
		},
		"bad term reason": {
			Exprs:  []expr.WireNode{{K: 0, W: 32, V: 1}},
			States: []WireState{{Regs: [8]int32{1, 1, 1, 1, 1, 1, 1, 1}, Reason: 99}},
		},
	} {
		if _, err := decodeStateGroup(g, base, ar); err == nil {
			t.Errorf("%s: decode accepted malformed group", name)
		}
	}
}

// emptyPagesBody is a 30 KB shard payload of 10,000 empty page-table
// entries. Decoded as full overlay pages it would allocate ~20 MB.
var emptyPagesBody = `{"pages":[` + strings.Repeat(`{},`, 9999) + `{}]}`

// TestDecodeStateGroupBoundsPages pins the page-table bounds: empty
// pages are rejected, a table past maxWirePages is rejected before
// any page is built, and decoding the 30 KB empty-page body allocates
// under 64 KB.
func TestDecodeStateGroupBoundsPages(t *testing.T) {
	ar := expr.NewArena()
	base := make([]byte, 4096)
	var g WireStateGroup
	if err := json.Unmarshal([]byte(emptyPagesBody), &g); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := decodeStateGroup(&g, base, ar)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decode accepted 10,000 empty pages")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("rejecting the empty-page body allocated %d bytes", n)
	}
	one := WirePage{Off: []uint16{0}, Ref: []int32{1}}
	for _, n := range []int{1, maxWirePages + 1} {
		g := &WireStateGroup{Exprs: []expr.WireNode{{K: 0, W: 8, V: 1}}, Pages: make([]WirePage, n)}
		for i := range g.Pages {
			g.Pages[i] = one
		}
		_, err := decodeStateGroup(g, base, ar)
		if (err == nil) != (n <= maxWirePages) {
			t.Fatalf("%d one-byte pages: decode error %v", n, err)
		}
	}
	g1 := &WireStateGroup{Pages: []WirePage{{}}}
	if _, err := decodeStateGroup(g1, base, ar); err == nil {
		t.Fatal("decode accepted an empty page")
	}
}

// FuzzDecodeStateGroup feeds arbitrary bytes through the JSON form of
// WireStateGroup into decodeStateGroup, the decoder behind both
// POST /shards tasks and peer shard results. The bytes come from the
// network, so the invariant is states or an error, never a panic. The
// seed corpus in testdata/fuzz holds real RTL8029 fan-out groups (a
// first-phase task group, its completed result group and a
// second-phase task group) and a body of empty page-table entries,
// which must fail cheaply: the invariant also excludes unbounded
// allocation.
func FuzzDecodeStateGroup(f *testing.F) {
	info, err := drivers.ByName("RTL8029")
	if err != nil {
		f.Fatal(err)
	}
	base := New(info.Program, Config{}).baseRAM
	// A minimal group with one shared page: small enough that byte
	// mutations land on the references and offsets, not on JSON syntax.
	f.Add([]byte(`{"exprs":[{"k":0,"w":32,"v":1},{"k":0,"w":8,"v":2}],"pages":[{"off":[255],"ref":[2]}],` +
		`"states":[{"regs":[1,1,1,1,1,1,1,1],"pages":{"3":1},"result":1},{"regs":[1,1,1,1,1,1,1,1],"pages":{"3":1}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var g WireStateGroup
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		states, err := decodeStateGroup(&g, base, expr.NewArena())
		if err != nil {
			return
		}
		// Decoded states must be whole enough to go back on the wire
		// (straggler re-dispatch re-encodes them).
		encodeStateGroup(states)
	})
}
