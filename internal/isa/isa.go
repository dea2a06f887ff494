// Package isa defines the 32-bit instruction set used by the guest
// machine in which proprietary drivers run.
//
// The ISA is a deliberately simple stand-in for x86: it has the
// structural properties RevNIC depends on (separate port I/O and
// memory-mapped I/O instructions, stack-passed arguments with
// callee cleanup as in the Windows stdcall convention, indirect jumps
// for compiler-generated jump tables, and a conventional return-value
// register) without the decoding complexity of a CISC front end.
//
// Every instruction occupies exactly 8 bytes:
//
//	byte 0: opcode
//	byte 1: rd   (destination register, or condition code)
//	byte 2: rs1  (first source register)
//	byte 3: rs2  (second source register, or RegNone for immediate form)
//	bytes 4-7: 32-bit little-endian immediate
//
// Registers r0..r6 are general purpose; sp (index 7) is the stack
// pointer. r0 carries function return values. Arguments are passed on
// the stack and popped by the callee (RET n), mirroring stdcall, which
// is what makes the synthesizer's def-use parameter recovery (§4.1 of
// the paper) meaningful.
package isa

import (
	"encoding/binary"
	"fmt"
)

// Reg identifies a general-purpose register.
type Reg uint8

// Register indices. SP is addressable like any other register so that
// frame arithmetic (parameter access at [sp+n]) is ordinary ALU code.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	SP

	// NumRegs is the number of architectural registers.
	NumRegs = 8

	// RegNone in the rs2 field selects the immediate operand form.
	RegNone Reg = 0xFF
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	if r == SP {
		return "sp"
	}
	if r == RegNone {
		return "none"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. ALU operations use rs2 when it is a real register and the
// immediate otherwise, so each operation has a single opcode for both
// register and immediate forms.
const (
	NOP Op = iota

	MOVI // rd = imm
	MOV  // rd = rs1

	ADD // rd = rs1 + src2
	SUB // rd = rs1 - src2
	AND // rd = rs1 & src2
	OR  // rd = rs1 | src2
	XOR // rd = rs1 ^ src2
	SHL // rd = rs1 << (src2 & 31)
	SHR // rd = rs1 >> (src2 & 31), logical
	SAR // rd = rs1 >> (src2 & 31), arithmetic
	MUL // rd = rs1 * src2

	LD8  // rd = zx(mem8[rs1 + imm])
	LD16 // rd = zx(mem16[rs1 + imm])
	LD32 // rd = mem32[rs1 + imm]
	ST8  // mem8[rs1 + imm] = rs2[7:0]
	ST16 // mem16[rs1 + imm] = rs2[15:0]
	ST32 // mem32[rs1 + imm] = rs2

	IN8   // rd = zx(port8[rs1 + imm])
	IN16  // rd = zx(port16[rs1 + imm])
	IN32  // rd = port32[rs1 + imm]
	OUT8  // port8[rs1 + imm] = rs2[7:0]
	OUT16 // port16[rs1 + imm] = rs2[15:0]
	OUT32 // port32[rs1 + imm] = rs2

	PUSH // sp -= 4; mem32[sp] = rs1
	POP  // rd = mem32[sp]; sp += 4

	JMP   // pc = imm
	JR    // pc = rs1 (indirect; jump tables)
	BR    // if cond(rd)(rs1, rs2) then pc = imm
	BRI   // if cond(rd)(rs1, zx(rs2 byte)) then pc = imm
	CALL  // push pc'; pc = imm
	CALLR // push pc'; pc = rs1 (indirect; OS API table calls)
	RET   // pc = pop(); sp += imm (callee argument cleanup)
	IRET  // return from interrupt
	HLT   // halt

	numOps
)

// Cond is the branch condition stored in the rd field of a BR
// instruction.
type Cond uint8

// Branch conditions. Signed and unsigned comparisons are distinct so
// that the symbolic executor forks with the correct path constraints.
const (
	EQ Cond = iota
	NE
	LT // signed <
	GE // signed >=
	LTU
	GEU

	numConds
)

var condNames = [numConds]string{"eq", "ne", "lt", "ge", "ltu", "geu"}

// String returns the assembler suffix for the condition.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Holds reports whether the condition holds between a and b.
func (c Cond) Holds(a, b uint32) bool {
	switch c {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return int32(a) < int32(b)
	case GE:
		return int32(a) >= int32(b)
	case LTU:
		return a < b
	case GEU:
		return a >= b
	}
	panic("isa: bad condition")
}

// InstrSize is the fixed encoding size of every instruction, in bytes.
const InstrSize = 8

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Rd  Reg // destination, or Cond for BR
	Rs1 Reg
	Rs2 Reg // RegNone selects the immediate operand
	Imm uint32
}

// HasImmOperand reports whether the second ALU/branch operand is the
// immediate rather than rs2.
func (i Instr) HasImmOperand() bool { return i.Rs2 == RegNone }

// Cond returns the branch condition of a BR instruction.
func (i Instr) Cond() Cond { return Cond(i.Rd) }

// Encode appends the 8-byte encoding of the instruction to dst.
func (i Instr) Encode(dst []byte) []byte {
	var b [InstrSize]byte
	b[0] = byte(i.Op)
	b[1] = byte(i.Rd)
	b[2] = byte(i.Rs1)
	b[3] = byte(i.Rs2)
	binary.LittleEndian.PutUint32(b[4:], i.Imm)
	return append(dst, b[:]...)
}

// Decode decodes one instruction from b. It rejects an unknown
// opcode and any operand invalid for its op's form (see validate), so
// executing a decoded instruction never indexes past the register
// file or meets an unknown branch condition.
func Decode(b []byte) (Instr, error) {
	if len(b) < InstrSize {
		return Instr{}, fmt.Errorf("isa: truncated instruction: %d bytes", len(b))
	}
	in := Instr{
		Op:  Op(b[0]),
		Rd:  Reg(b[1]),
		Rs1: Reg(b[2]),
		Rs2: Reg(b[3]),
		Imm: binary.LittleEndian.Uint32(b[4:]),
	}
	if in.Op >= numOps {
		return Instr{}, fmt.Errorf("isa: invalid opcode %#x", b[0])
	}
	if err := in.validate(); err != nil {
		return Instr{}, err
	}
	return in, nil
}

// validate checks the operands the instruction's form reads: every
// register field below NumRegs, RegNone only as the rs2 of an ALU op
// (its immediate form), and a branch's rd a valid condition. BRI's
// rs2 holds an 8-bit immediate and is not a register. Fields a form
// ignores are not checked.
func (i Instr) validate() error {
	var rd, rs1, rs2 bool // the fields the form reads as registers
	switch i.Op {
	case MOVI, POP:
		rd = true
	case MOV, LD8, LD16, LD32, IN8, IN16, IN32:
		rd, rs1 = true, true
	case ADD, SUB, AND, OR, XOR, SHL, SHR, SAR, MUL:
		rd, rs1, rs2 = true, true, !i.HasImmOperand()
	case ST8, ST16, ST32, OUT8, OUT16, OUT32:
		rs1, rs2 = true, true
	case PUSH, JR, CALLR:
		rs1 = true
	case BR, BRI:
		if i.Cond() >= numConds {
			return fmt.Errorf("isa: %s: invalid condition code %d", i.Op, uint8(i.Rd))
		}
		rs1, rs2 = true, i.Op == BR
	}
	for _, f := range []struct {
		name string
		used bool
		r    Reg
	}{{"rd", rd, i.Rd}, {"rs1", rs1, i.Rs1}, {"rs2", rs2, i.Rs2}} {
		if f.used && f.r >= NumRegs {
			return fmt.Errorf("isa: %s: %s register %d out of range", i.Op, f.name, uint8(f.r))
		}
	}
	return nil
}

var opNames = [numOps]string{
	NOP: "nop", MOVI: "movi", MOV: "mov",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", SAR: "sar", MUL: "mul",
	LD8: "ld8", LD16: "ld16", LD32: "ld32",
	ST8: "st8", ST16: "st16", ST32: "st32",
	IN8: "in8", IN16: "in16", IN32: "in32",
	OUT8: "out8", OUT16: "out16", OUT32: "out32",
	PUSH: "push", POP: "pop",
	JMP: "jmp", JR: "jr", BR: "br", BRI: "bri", CALL: "call", CALLR: "callr",
	RET: "ret", IRET: "iret", HLT: "hlt",
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the instruction ends a translation
// block: any instruction that may alter control flow.
func (o Op) IsTerminator() bool {
	switch o {
	case JMP, JR, BR, BRI, CALL, CALLR, RET, IRET, HLT:
		return true
	}
	return false
}

// IsCall reports whether the instruction is a function call.
func (o Op) IsCall() bool { return o == CALL || o == CALLR }

// IsPortIO reports whether the instruction performs port I/O.
func (o Op) IsPortIO() bool {
	switch o {
	case IN8, IN16, IN32, OUT8, OUT16, OUT32:
		return true
	}
	return false
}

// IsLoad reports whether the instruction reads memory (not ports).
func (o Op) IsLoad() bool {
	switch o {
	case LD8, LD16, LD32, POP:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes memory (not ports).
func (o Op) IsStore() bool {
	switch o {
	case ST8, ST16, ST32, PUSH:
		return true
	}
	return false
}

// AccessSize returns the memory or port access width in bytes for
// load/store/in/out instructions, and 0 for everything else.
func (o Op) AccessSize() int {
	switch o {
	case LD8, ST8, IN8, OUT8:
		return 1
	case LD16, ST16, IN16, OUT16:
		return 2
	case LD32, ST32, IN32, OUT32, PUSH, POP:
		return 4
	}
	return 0
}

// Disassemble renders the instruction in assembler syntax. addr is the
// instruction's own address, used only to annotate relative targets.
func (i Instr) Disassemble() string {
	src2 := func() string {
		if i.HasImmOperand() {
			return fmt.Sprintf("#%#x", i.Imm)
		}
		return i.Rs2.String()
	}
	switch i.Op {
	case NOP, RET, IRET, HLT:
		if i.Op == RET && i.Imm != 0 {
			return fmt.Sprintf("ret %d", i.Imm)
		}
		return i.Op.String()
	case MOVI:
		return fmt.Sprintf("movi %s, #%#x", i.Rd, i.Imm)
	case MOV:
		return fmt.Sprintf("mov %s, %s", i.Rd, i.Rs1)
	case ADD, SUB, AND, OR, XOR, SHL, SHR, SAR, MUL:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, src2())
	case LD8, LD16, LD32:
		return fmt.Sprintf("%s %s, [%s+%#x]", i.Op, i.Rd, i.Rs1, i.Imm)
	case ST8, ST16, ST32:
		return fmt.Sprintf("%s [%s+%#x], %s", i.Op, i.Rs1, i.Imm, i.Rs2)
	case IN8, IN16, IN32:
		return fmt.Sprintf("%s %s, (%s+%#x)", i.Op, i.Rd, i.Rs1, i.Imm)
	case OUT8, OUT16, OUT32:
		return fmt.Sprintf("%s (%s+%#x), %s", i.Op, i.Rs1, i.Imm, i.Rs2)
	case PUSH:
		return fmt.Sprintf("push %s", i.Rs1)
	case POP:
		return fmt.Sprintf("pop %s", i.Rd)
	case JMP, CALL:
		return fmt.Sprintf("%s %#x", i.Op, i.Imm)
	case JR, CALLR:
		return fmt.Sprintf("%s %s", i.Op, i.Rs1)
	case BR:
		return fmt.Sprintf("b%s %s, %s, %#x", i.Cond(), i.Rs1, i.Rs2, i.Imm)
	case BRI:
		return fmt.Sprintf("b%s %s, #%#x, %#x", i.Cond(), i.Rs1, uint8(i.Rs2), i.Imm)
	}
	return fmt.Sprintf("%s ???", i.Op)
}
