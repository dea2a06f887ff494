package symexec

import (
	"fmt"
	"math/rand"
	"testing"

	"revnic/internal/hw"
	"revnic/internal/isa"
	"revnic/internal/vm"
)

// TestDifferentialAgainstConcreteVM cross-checks the symbolic
// executor against the concrete VM: random straight-line-plus-loops
// programs with fully concrete inputs must leave both machines in
// identical register/memory states. Any divergence is a semantics bug
// in one interpreter — the class of bug that would silently corrupt
// reverse engineering.
func TestDifferentialAgainstConcreteVM(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		src := genProgram(r)
		prog, err := isa.Assemble(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}

		// Concrete run.
		m := vm.New(hw.NewBus())
		if err := m.LoadImage(prog); err != nil {
			t.Fatal(err)
		}
		wantR0, err := m.CallEntry(prog.Base, 10000)
		if err != nil {
			t.Fatalf("trial %d: concrete: %v\n%s", trial, err, src)
		}

		// Symbolic run with no symbolic inputs.
		e := New(prog, Config{})
		st := e.newState()
		sp := uint32(hw.StackTop) - 4
		st.Mem.write(sp, 4, word{v: vm.MagicReturn})
		st.regs[isa.SP] = word{v: sp}
		st.PC = prog.Base
		st.Frames = []frame{{target: prog.Base, entrySP: sp}}
		live := []*State{st}
		var final *State
		for len(live) > 0 {
			s := live[len(live)-1]
			live = live[:len(live)-1]
			out, err := e.stepBlock(s)
			if err != nil {
				t.Fatalf("trial %d: symbolic: %v\n%s", trial, err, src)
			}
			live = append(live, out...)
			if s.Reason == TermCompleted {
				final = s
				break
			}
			if s.Reason == TermError {
				t.Fatalf("trial %d: symbolic error state\n%s", trial, src)
			}
		}
		if final == nil {
			t.Fatalf("trial %d: symbolic never completed\n%s", trial, src)
		}

		// Result register agreement.
		gotR0, ok := final.Result.IsConst()
		if !ok {
			t.Fatalf("trial %d: result not concrete: %s", trial, final.Result)
		}
		if gotR0 != wantR0 {
			t.Fatalf("trial %d: r0 symbolic=%#x concrete=%#x\n%s", trial, gotR0, wantR0, src)
		}
		// All registers agree.
		for i := 0; i < 7; i++ {
			sv, ok := final.regs[i].concrete()
			if !ok {
				t.Fatalf("trial %d: r%d not concrete", trial, i)
			}
			if sv != m.Regs[i] {
				t.Fatalf("trial %d: r%d symbolic=%#x concrete=%#x\n%s", trial, i, sv, m.Regs[i], src)
			}
		}
		// Scratch memory agrees byte for byte.
		scratch := prog.Sym("scratch")
		for off := uint32(0); off < 32; off++ {
			sv, ok := final.Mem.ByteAt(scratch + off).IsConst()
			if !ok {
				t.Fatalf("trial %d: scratch+%d not concrete", trial, off)
			}
			cv, _ := m.Read(scratch+off, 1)
			if sv != cv {
				t.Fatalf("trial %d: scratch+%d symbolic=%#x concrete=%#x\n%s", trial, off, sv, cv, src)
			}
		}
	}
}

// genProgram builds a random but well-formed program: ALU soup, a
// bounded loop, stack traffic, a helper call, and stores into a
// scratch area.
func genProgram(r *rand.Rand) string {
	alu := []string{"add", "sub", "and", "or", "xor", "mul", "shl", "shr", "sar"}
	var body string
	for i := 0; i < 10+r.Intn(20); i++ {
		op := alu[r.Intn(len(alu))]
		rd := r.Intn(5)
		rs := r.Intn(5)
		if r.Intn(2) == 0 {
			body += fmt.Sprintf("\t%s r%d, r%d, #%d\n", op, rd, rs, r.Intn(1<<16))
		} else {
			body += fmt.Sprintf("\t%s r%d, r%d, r%d\n", op, rd, rs, r.Intn(5))
		}
	}
	loopN := 1 + r.Intn(9)
	cond := []string{"bltu", "blt"}[r.Intn(2)]
	return fmt.Sprintf(`
.org 0x10000
.func main
	movi r0, #%d
	movi r1, #%d
	movi r2, #0
%s
	; bounded loop with stores
	movi r5, #0
loop:
	movi r6, scratch
	add  r6, r6, r5
	st8  [r6+0], r0
	add  r0, r0, r1
	add  r5, r5, #1
	%s r5, #%d, loop
	; helper call through the stack
	push r0
	push r1
	call helper
	push r0
	pop  r3
	ret
.func helper
	ld32 r1, [sp+4]
	ld32 r2, [sp+8]
	xor  r0, r1, r2
	movi r4, scratch
	st32 [r4+24], r0
	ret 8
.align 8
scratch:
	.space 32
`, r.Intn(1<<24), 1+r.Intn(1000), body, cond, loopN)
}
