package vm

import (
	"sync"
	"testing"

	"revnic/internal/hw"
	"revnic/internal/ir"
	"revnic/internal/isa"
)

// Machines that load one ir.Image share its translations, but every
// block a machine runs must still be the one decoded from that
// machine's own RAM at the block's first execution — exactly what a
// machine with an image of its own (LoadImage) runs. Each test below
// checks a shared-image machine against that rule.

func assemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func loaded(t *testing.T, img *ir.Image) *Machine {
	t.Helper()
	m := New(hw.NewBus())
	t.Cleanup(m.RAM.Free)
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	return m
}

const patchSrc = `
.org 0x1000
.func patch
	movi r1, target
	movi r2, #7
	st32 [r1+4], r2   ; rewrite the immediate of target's movi
	call target
	ret
.func target
	movi r0, #1
	ret
`

// TestSharedImageGuestStoreBeforeFirstExecution: a guest store into
// its code region before a block first runs makes the machine run its
// own bytes, even when another machine has already put the original
// block into the shared image; machines sharing the image still run
// the original bytes.
func TestSharedImageGuestStoreBeforeFirstExecution(t *testing.T) {
	p := assemble(t, patchSrc)
	img := ir.NewImage(p)

	// A machine that runs target first puts the original block in
	// the image.
	first := loaded(t, img)
	if got, err := first.CallEntry(p.Sym("target"), 10); err != nil || got != 1 {
		t.Fatalf("target before any patch: %d, %v", got, err)
	}
	if _, err := img.Get(p.Sym("target")); err != nil {
		t.Fatal(err)
	}

	patched := loaded(t, img)
	if got, err := patched.CallEntry(p.Sym("patch"), 10); err != nil || got != 7 {
		t.Fatalf("patched machine ran %d (%v), want its own bytes (7)", got, err)
	}
	own := New(hw.NewBus())
	defer own.RAM.Free()
	if err := own.LoadImage(p); err != nil {
		t.Fatal(err)
	}
	if got, err := own.CallEntry(p.Sym("patch"), 10); err != nil || got != 7 {
		t.Fatalf("machine with its own image ran %d (%v), want 7", got, err)
	}

	other := loaded(t, img)
	if got, err := other.CallEntry(p.Sym("target"), 10); err != nil || got != 1 {
		t.Fatalf("second machine sharing the image ran %d (%v), want the original bytes (1)", got, err)
	}
	// A block is decoded at its first execution and kept: patching
	// after first already ran target changes nothing for it.
	if got, err := first.CallEntry(p.Sym("patch"), 10); err != nil || got != 1 {
		t.Fatalf("patch after first execution ran %d (%v), want the first decoding (1)", got, err)
	}
}

// TestSharedImageBlockCrossesEnd runs a block that starts in the image
// and runs off its end: the image reads zero RAM there, so a machine
// whose RAM past the end is still zero takes the image's block, and a
// machine that wrote code past the end runs what it wrote.
func TestSharedImageBlockCrossesEnd(t *testing.T) {
	p := assemble(t, ".org 0x1000\n.func tail\n\tmovi r0, #5")
	end := p.Base + uint32(len(p.Code))
	img := ir.NewImage(p)

	zero := loaded(t, img)
	zero.PC = p.Base
	b, err := zero.StepBlock()
	if err != nil {
		t.Fatal(err)
	}
	own := New(hw.NewBus())
	defer own.RAM.Free()
	if err := own.LoadImage(p); err != nil {
		t.Fatal(err)
	}
	own.PC = p.Base
	ob, err := own.StepBlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instrs) != ir.MaxBlockInstrs || b.String() != ob.String() {
		t.Fatalf("block over zero RAM has %d instructions, own image %d", len(b.Instrs), len(ob.Instrs))
	}
	if ib, _ := img.Get(p.Base); b != ib {
		t.Error("machine with matching RAM did not take the image's block")
	}

	wrote := loaded(t, img)
	wrote.RAM.WriteMem(end, isa.Instr{Op: isa.RET}.Encode(nil))
	if got, err := wrote.CallEntry(p.Base, 10); err != nil || got != 5 {
		t.Fatalf("machine with code past the image end: %d, %v", got, err)
	}
}

// TestSharedImageFetchOutsideRAM checks that a failed fetch reports
// the machine's own error text, for a jump outside RAM and for an
// image block that runs off the top of RAM.
func TestSharedImageFetchOutsideRAM(t *testing.T) {
	p := assemble(t, ".org 0x1000\n.func badjump\n\tmovi r1, #0x00500000\n\tjr r1")
	m := loaded(t, ir.NewImage(p))
	_, err := m.CallEntry(p.Sym("badjump"), 10)
	if want := "ir: translate at 0x500000: vm: instruction fetch outside RAM at 0x500000"; err == nil || err.Error() != want {
		t.Errorf("jump outside RAM: %v, want %q", err, want)
	}

	top := &isa.Program{Base: hw.RAMSize - 2*isa.InstrSize, Code: make([]byte, 2*isa.InstrSize)}
	m = loaded(t, ir.NewImage(top))
	m.PC = top.Base
	_, err = m.StepBlock()
	if want := "ir: translate at 0xffff0: vm: instruction fetch outside RAM at 0x100000"; err == nil || err.Error() != want {
		t.Errorf("block off the top of RAM: %v, want %q", err, want)
	}
}

// TestSharedImageConcurrentMachines runs machines that share one image
// on several goroutines; under -race it checks the image's lock-free
// read path.
func TestSharedImageConcurrentMachines(t *testing.T) {
	p := assemble(t, `
.org 0x1000
.func sum
	ld32 r1, [sp+4]
	movi r0, #0
	movi r2, #0
loop:
	bgeu r2, r1, done
	add  r2, r2, #1
	add  r0, r0, r2
	jmp  loop
done:
	ret 4
`)
	img := ir.NewImage(p)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				m := New(hw.NewBus())
				if err := m.Load(img); err != nil {
					t.Error(err)
					return
				}
				n := uint32(g*20 + i)
				got, err := m.CallEntry(p.Sym("sum"), 10000, n)
				m.RAM.Free()
				if err != nil || got != n*(n+1)/2 {
					t.Errorf("sum(%d) = %d, %v", n, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := img.Misses(); n != 4 {
		t.Errorf("image translated %d blocks, want 4 (each once)", n)
	}
}
