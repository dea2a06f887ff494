package ir

import (
	"bytes"
	"testing"

	"revnic/internal/hw"
	"revnic/internal/isa"
)

type sliceReader struct {
	base uint32
	code []byte
}

func (r sliceReader) FetchInstr(addr uint32) (isa.Instr, error) {
	return isa.Decode(r.code[addr-r.base:])
}

func mustProg(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTranslateStopsAtTerminator(t *testing.T) {
	p := mustProg(t, `
	movi r0, #1
	add r0, r0, #2
	jmp 0
	movi r1, #9 ; unreachable, next block
	hlt
`)
	r := sliceReader{0, p.Code}
	b, err := Translate(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instrs) != 3 || b.Term().Op != isa.JMP {
		t.Fatalf("block = %s", b)
	}
	if b.EndAddr() != 3*isa.InstrSize {
		t.Errorf("EndAddr = %#x", b.EndAddr())
	}
	if !b.Contains(isa.InstrSize) || b.Contains(3*isa.InstrSize) || b.Contains(1) {
		t.Error("Contains misbehaves")
	}
	// Next block.
	b2, err := Translate(r, b.EndAddr())
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Instrs) != 2 || b2.Term().Op != isa.HLT {
		t.Fatalf("block2 = %s", b2)
	}
}

func TestTranslateBounded(t *testing.T) {
	// A long run of NOPs with no terminator must stop at the bound.
	code := make([]byte, 0, (MaxBlockInstrs+10)*isa.InstrSize)
	for i := 0; i < MaxBlockInstrs+10; i++ {
		code = isa.Instr{Op: isa.NOP}.Encode(code)
	}
	b, err := Translate(sliceReader{0, code}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Instrs) != MaxBlockInstrs {
		t.Fatalf("len = %d", len(b.Instrs))
	}
}

func TestImage(t *testing.T) {
	p := mustProg(t, "movi r0, #1\nhlt\nmovi r0, #2\nhlt")
	p.Base = 0x1000
	img := NewImage(p)
	if img.Slots() != 4 {
		t.Fatalf("slots = %d", img.Slots())
	}
	b1, err := img.Get(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if b1again, _ := img.Get(0x1000); b1 != b1again {
		t.Error("image miss on repeat")
	}
	b2, err := img.Get(0x1000 + 2*isa.InstrSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(b2.Instrs) != 2 || b2.Instrs[0].Imm != 2 {
		t.Fatalf("block2 = %s", b2)
	}
	if got := img.Source(b2); !bytes.Equal(got, p.Code[2*isa.InstrSize:]) {
		t.Errorf("Source = % x", got)
	}
	// Below the base: RAM is zero there, outside the slot table.
	if _, ok := img.Slot(0x1000 - isa.InstrSize); ok {
		t.Error("address below the base has a slot")
	}
	if _, ok := img.Slot(0x1001); ok {
		t.Error("misaligned address has a slot")
	}
	if _, err := img.Get(0x1000 - isa.InstrSize); err != nil {
		t.Fatal(err)
	}
	if img.Misses() != 3 {
		t.Errorf("misses = %d", img.Misses())
	}
	if _, err := img.Get(hw.RAMSize - 4); err == nil || err.Error() != "ir: translate at 0xffffc: ir: fetch outside RAM at 0xffffc" {
		t.Errorf("fetch outside RAM: %v", err)
	}
	if img.Misses() != 3 {
		t.Errorf("a failed translation counted: misses = %d", img.Misses())
	}
}

// TestImageCrossesEnd checks that a block running off the end of the
// image reads the zero RAM past it, and that Source covers those
// zeros.
func TestImageCrossesEnd(t *testing.T) {
	p := mustProg(t, "movi r0, #1\nadd r0, r0, #1")
	p.Base = 0x2000
	img := NewImage(p)
	b, err := img.Get(0x2000 + isa.InstrSize)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := isa.Decode(make([]byte, isa.InstrSize))
	if err != nil {
		t.Fatal(err)
	}
	if b.Instrs[0].Op != isa.ADD || len(b.Instrs) < 2 || b.Instrs[1] != zero {
		t.Fatalf("block = %s", b)
	}
	src := img.Source(b)
	if len(src) != len(b.Instrs)*isa.InstrSize || !bytes.Equal(src[:isa.InstrSize], p.Code[isa.InstrSize:]) {
		t.Fatalf("Source = % x", src)
	}
	for _, c := range src[isa.InstrSize:] {
		if c != 0 {
			t.Fatalf("Source past the image end is not zero: % x", src)
		}
	}
}

func TestBlockString(t *testing.T) {
	p := mustProg(t, "movi r0, #1\nhlt")
	b, _ := Translate(sliceReader{0, p.Code}, 0)
	if s := b.String(); s == "" {
		t.Error("empty String")
	}
}
