package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEncodeDecodeRoundTrip checks random encodings: a well-formed
// instruction decodes back to itself, and one with an operand invalid
// for its form is rejected.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm uint32) bool {
		in := Instr{Op: Op(op % uint8(numOps)), Rd: Reg(rd % 12), Rs1: Reg(rs1 % 12), Rs2: Reg(rs2 % 12), Imm: imm}
		if rs2%2 == 0 {
			in.Rs2 = RegNone
		}
		out, err := Decode(in.Encode(nil))
		if in.validate() != nil {
			return err != nil
		}
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("want error for truncated instruction")
	}
	bad := Instr{Op: numOps}.Encode(nil)
	bad[0] = byte(numOps)
	if _, err := Decode(bad); err == nil {
		t.Error("want error for invalid opcode")
	}
	for _, in := range []Instr{
		{Op: BR, Rd: Reg(EQ), Rs1: 0x30, Rs2: R1},       // rs1 past the register file
		{Op: ADD, Rd: SP + 1, Rs1: R0, Rs2: RegNone},    // rd past the register file
		{Op: ST32, Rs1: R1, Rs2: RegNone},               // RegNone outside an ALU rs2
		{Op: BR, Rd: Reg(numConds), Rs1: R0, Rs2: R1},   // unknown condition
		{Op: BRI, Rd: Reg(numConds), Rs1: R0, Rs2: 0x7}, // unknown condition
		{Op: PUSH, Rs1: RegNone},
	} {
		if _, err := Decode(in.Encode(nil)); err == nil {
			t.Errorf("%+v: want an operand error", in)
		}
	}
	for _, in := range []Instr{
		{Op: ADD, Rd: R1, Rs1: R2, Rs2: RegNone, Imm: 4}, // immediate form
		{Op: BRI, Rd: Reg(GEU), Rs1: SP, Rs2: 0xFF},      // rs2 is an imm8
		{Op: MOVI, Rd: R0, Rs1: 0xEE, Rs2: RegNone},      // unused fields are not checked
	} {
		if _, err := Decode(in.Encode(nil)); err != nil {
			t.Errorf("%+v: %v", in, err)
		}
	}
}

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
; a tiny program
.org 0x10000
.equ MAGIC, 0x42
start:
	movi r0, #MAGIC
	movi r1, data
	ld32 r2, [r1+4]
	add  r2, r2, #1
	st32 [r1+4], r2
	beq  r2, #0, done
	call fn
done:
	hlt
.func fn
	in8  r0, (r1+0x10)
	out8 (r1+0x10), r0
	ret 4
.align 8
data:
	.word 0x11223344, 0x55667788
	.byte 1, 2
	.short 0x1234
	.asciz "hi"
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x10000 {
		t.Errorf("Base = %#x, want 0x10000", p.Base)
	}
	if got := p.Sym("start"); got != 0x10000 {
		t.Errorf("start = %#x", got)
	}
	if len(p.Funcs) != 1 || p.Funcs[0].Name != "fn" {
		t.Fatalf("Funcs = %+v", p.Funcs)
	}
	if p.Sym("fn") != p.Funcs[0].Addr {
		t.Errorf("fn symbol and func record disagree")
	}

	// Decode the first instruction and verify it.
	in, err := Decode(p.Code)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != MOVI || in.Rd != R0 || in.Imm != 0x42 {
		t.Errorf("first instr = %+v", in)
	}

	// The branch should be a BRI with comparand 0 and target "done".
	off := 5 * InstrSize
	br, err := Decode(p.Code[off:])
	if err != nil {
		t.Fatal(err)
	}
	if br.Op != BRI || br.Cond() != EQ || uint8(br.Rs2) != 0 || br.Imm != p.Sym("done") {
		t.Errorf("branch = %+v (target want %#x)", br, p.Sym("done"))
	}

	// data contents.
	d := p.Sym("data") - p.Base
	if p.Code[d] != 0x44 || p.Code[d+3] != 0x11 {
		t.Errorf("little-endian .word wrong: % x", p.Code[d:d+4])
	}
}

func TestAssembleForwardAndBackwardRefs(t *testing.T) {
	p, err := Assemble(`
loop:
	jmp fwd
fwd:
	jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	i0, _ := Decode(p.Code)
	i1, _ := Decode(p.Code[InstrSize:])
	if i0.Imm != InstrSize {
		t.Errorf("forward ref = %#x, want %#x", i0.Imm, InstrSize)
	}
	if i1.Imm != 0 {
		t.Errorf("backward ref = %#x, want 0", i1.Imm)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r0",
		"movi r9, #1",
		"add r0, r1",
		"jmp undefined_symbol",
		"beq r0, #0x1ff, 0", // immediate comparand too wide
		"ld32 r0, (r1+0)",   // parens are for ports
		".align 3",
		".equ broken",
		"dup: nop\ndup: nop",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q): want error", src)
		}
	}
}

func TestDisassembleAllOps(t *testing.T) {
	// Every opcode must disassemble to something non-empty and
	// round-trippable through the assembler where syntax permits.
	r := rand.New(rand.NewSource(1))
	for op := NOP; op < numOps; op++ {
		in := Instr{Op: op, Rd: Reg(r.Intn(7)), Rs1: Reg(r.Intn(7)), Rs2: Reg(r.Intn(7)), Imm: uint32(r.Intn(1 << 16))}
		if op == BR || op == BRI {
			in.Rd = Reg(r.Intn(int(numConds)))
		}
		if s := in.Disassemble(); s == "" {
			t.Errorf("op %v: empty disassembly", op)
		}
	}
}

func TestAccessClassPredicates(t *testing.T) {
	if !IN8.IsPortIO() || !OUT32.IsPortIO() || LD8.IsPortIO() {
		t.Error("IsPortIO misclassifies")
	}
	if !LD16.IsLoad() || !POP.IsLoad() || ST8.IsLoad() {
		t.Error("IsLoad misclassifies")
	}
	if !ST32.IsStore() || !PUSH.IsStore() || LD32.IsStore() {
		t.Error("IsStore misclassifies")
	}
	if !CALL.IsCall() || !CALLR.IsCall() || JMP.IsCall() {
		t.Error("IsCall misclassifies")
	}
	for _, tc := range []struct {
		op   Op
		size int
	}{{LD8, 1}, {ST16, 2}, {IN32, 4}, {PUSH, 4}, {ADD, 0}} {
		if got := tc.op.AccessSize(); got != tc.size {
			t.Errorf("%v.AccessSize() = %d, want %d", tc.op, got, tc.size)
		}
	}
	if !BRI.IsTerminator() || !HLT.IsTerminator() || ADD.IsTerminator() {
		t.Error("IsTerminator misclassifies")
	}
}
