package synthdrv

// The execution contract of a synthesized driver, checked through the
// package's public face on hand-built graphs: what a recovered
// function sees when Call runs it, and how a call ends.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"revnic/internal/cfg"
	"revnic/internal/guestos"
	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/isa"
	"revnic/internal/template"
)

// contractGraph assembles src and recovers one basic block at every
// label except those named in missing, which stay unexplored. Every
// label is a function entry; the test picks the ones it calls.
func contractGraph(t *testing.T, src string, missing ...string) (*cfg.Graph, *isa.Program) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img := ir.NewImage(p)
	g := &cfg.Graph{Funcs: map[uint32]*cfg.Function{}, Blocks: map[uint32]*cfg.BasicBlock{}}
	for name, addr := range p.Symbols {
		if strings.HasPrefix(name, "API_") || contains(missing, name) {
			continue
		}
		tb, err := img.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		b := &cfg.BasicBlock{}
		b.Addr, b.Instrs = tb.Addr, tb.Instrs
		g.Blocks[addr] = b
		g.Funcs[addr] = &cfg.Function{Entry: addr, Blocks: map[uint32]*cfg.BasicBlock{addr: b}}
	}
	return g, p
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// contractDriver binds g to a KitOS runtime and a bus holding dev at
// port 0xC000.
func contractDriver(g *cfg.Graph, dev hw.Device) *Driver {
	bus := hw.NewBus()
	if dev != nil {
		bus.Attach(dev, hw.PCIConfig{IOBase: 0xC000, IOSize: 0x100})
	}
	return New(NewCode(g), template.NewRuntime(template.KitOS, hw.PCIConfig{}), bus)
}

// portCounter counts port writes.
type portCounter struct {
	hw.NopDevice
	writes int
}

func (p *portCounter) PortWrite(off uint32, size int, v uint32) { p.writes++ }

var apiEqus = fmt.Sprintf(`
.equ API_ALLOC, %#x
.equ API_UPTIME, %#x
`, hw.APIGate(guestos.APIAllocateMemory), hw.APIGate(guestos.APIGetSystemUpTime))

func TestCallZeroesRegisters(t *testing.T) {
	g, p := contractGraph(t, apiEqus+`
.org 0x10000
leak:
	mov  r0, r5
	add  r0, r0, r6
	movi r5, #9
	movi r6, #11
	ret
`)
	d := contractDriver(g, nil)
	f := g.Funcs[p.Sym("leak")]
	for i := range 3 {
		got, err := d.Call(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("call %d: r5+r6 = %d, want 0: registers must be zero at every call", i, got)
		}
	}
}

func TestReturnToSentinelEndsCall(t *testing.T) {
	g, p := contractGraph(t, apiEqus+`
.org 0x10000
second:
	ld32 r0, [sp+8]
	ret 8
`)
	d := contractDriver(g, nil)
	got, err := d.Call(g.Funcs[p.Sym("second")], 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("r0 = %d, want 42", got)
	}
}

func TestBranchToUnrecoveredCode(t *testing.T) {
	g, p := contractGraph(t, apiEqus+`
.org 0x10000
f:
	movi r1, #1
	bne  r1, r0, gone
near:
	ret
gone:
	ret
`, "gone")
	d := contractDriver(g, nil)
	_, err := d.Call(g.Funcs[p.Sym("f")])
	var unexp *ErrUnexplored
	if !errors.As(err, &unexp) {
		t.Fatalf("err = %v, want *ErrUnexplored", err)
	}
	if unexp.To != p.Sym("gone") || unexp.From != p.Sym("f") {
		t.Errorf("unexplored %#x -> %#x, want %#x -> %#x", unexp.From, unexp.To, p.Sym("f"), p.Sym("gone"))
	}
}

func TestOSCallReturnsToUnrecoveredCode(t *testing.T) {
	g, p := contractGraph(t, apiEqus+`
.org 0x10000
f:
	call API_UPTIME
after:
	ret
`, "after")
	d := contractDriver(g, nil)
	_, err := d.Call(g.Funcs[p.Sym("f")])
	var unexp *ErrUnexplored
	if !errors.As(err, &unexp) {
		t.Fatalf("err = %v, want *ErrUnexplored", err)
	}
	if unexp.To != p.Sym("after") {
		t.Errorf("unexplored target %#x, want the return address %#x", unexp.To, p.Sym("after"))
	}
}

func TestOSCallIsStdcall(t *testing.T) {
	// The runtime reads the argument and pops it: AllocateMemory(24)
	// returns the heap start, and SP is back where the caller left it.
	g, p := contractGraph(t, apiEqus+`
.org 0x10000
f:
	movi r1, #24
	push r1
	call API_ALLOC
back:
	movi r2, scratch
	st32 [r2+0], r0
	mov  r0, sp
	ret
scratch:
	.word 0
`)
	d := contractDriver(g, nil)
	sp, err := d.Call(g.Funcs[p.Sym("f")])
	if err != nil {
		t.Fatal(err)
	}
	if want := uint32(hw.StackTop - 4); sp != want {
		t.Errorf("SP after the OS call = %#x, want %#x", sp, want)
	}
	heap := d.OS.AllocMemory(8)
	if heap != 0x80000+24 {
		t.Errorf("next allocation at %#x: the call did not allocate 24 bytes", heap)
	}
}

func TestRunawayLoopStopsAtBlockBudget(t *testing.T) {
	g, p := contractGraph(t, apiEqus+`
.org 0x10000
spin:
	movi r1, #0xC000
	out8 (r1+0), r2
	jmp  spin
`)
	dev := &portCounter{}
	d := contractDriver(g, dev)
	_, err := d.Call(g.Funcs[p.Sym("spin")])
	var unexp *ErrUnexplored
	if err == nil || errors.As(err, &unexp) {
		t.Fatalf("err = %v, want a block-budget error", err)
	}
	if dev.writes != callLimit {
		t.Errorf("loop ran %d blocks, want the budget of %d", dev.writes, callLimit)
	}
}

func TestEdgesAreDistinctTransfers(t *testing.T) {
	// top's predecessor alternates between even and join on every
	// iteration, so the edge list must compact instead of growing
	// with the loop count.
	g, p := contractGraph(t, apiEqus+`
.org 0x10000
f:
	movi r1, #100
top:
	and  r2, r1, #1
	beq  r2, #0, even
odd:
	jmp  join
even:
	nop
join:
	sub  r1, r1, #1
	bne  r1, #0, top
done:
	ret
`)
	d := contractDriver(g, nil)
	for range 2 {
		if _, err := d.Call(g.Funcs[p.Sym("f")]); err != nil {
			t.Fatal(err)
		}
	}
	addrs := d.Code.Addrs()
	if !slices.IsSorted(addrs) || len(addrs) != len(g.Blocks) {
		t.Fatalf("Addrs = %#x, want the %d block addresses ascending", addrs, len(g.Blocks))
	}
	id := func(label string) uint64 { return uint64(slices.Index(addrs, p.Sym(label))) }
	edge := func(from, to string) uint64 {
		if from == "" {
			return id(to)
		}
		return (id(from)+1)<<32 | id(to)
	}
	want := []uint64{
		edge("", "f"), edge("f", "even"), edge("even", "top"), edge("top", "odd"),
		edge("top", "even"), edge("odd", "join"), edge("join", "top"), edge("join", "done"),
	}
	slices.Sort(want)
	got := d.Edges()
	if !slices.Equal(got, want) {
		t.Errorf("edges %#x, want %#x", got, want)
	}
	// Edges returns the machine's edge list itself, so its capacity is
	// the list's.
	if cap(got) > 4*len(want) {
		t.Errorf("edge list grew to %d for %d distinct edges", cap(got), len(want))
	}
	if got := addrs[EdgeTarget(edge("join", "done"))]; got != p.Sym("done") {
		t.Errorf("EdgeTarget leads to %#x, want %#x", got, p.Sym("done"))
	}
}
